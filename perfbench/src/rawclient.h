// A raw keep-alive HTTP/1.1 client for the load generator: it sends
// pre-rendered request bytes and frames responses by Content-Length,
// without building or decoding any Value, so the load thread costs far
// less than the server it measures.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class RawConn {
 public:
  RawConn() = default;
  ~RawConn();
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  /// Blocking connect to 127.0.0.1:port with TCP_NODELAY.
  bool connect(std::uint16_t port);
  int fd() const { return fd_; }

  /// Sends every byte (the socket is blocking).
  bool send_all(std::string_view bytes);

  enum class Read { kNeedMore, kResponse, kError };
  /// One recv() plus framing. kResponse: status()/body() describe the first
  /// complete response until consume().
  Read read_some();
  int status() const { return status_; }
  std::string_view body() const { return std::string_view(buf_).substr(body_at_, body_len_); }
  void consume();

  /// send_all + read until one complete response.
  bool roundtrip(std::string_view request);

 private:
  bool frame();

  int fd_ = -1;
  std::string buf_;
  std::size_t len_ = 0;  // bytes of buf_ holding received data
  int status_ = 0;
  std::size_t body_at_ = 0;
  std::size_t body_len_ = 0;
  std::size_t total_ = 0;  // bytes of the framed response, 0 when none
};

/// Frames one response at the front of `data`: on success sets the status,
/// body offset/length and total length and returns true.
bool frame_response(std::string_view data, int* status, std::size_t* body_at,
                    std::size_t* body_len, std::size_t* total);

}  // namespace perfbench
