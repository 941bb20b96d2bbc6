// Raw-socket test client for torture-testing the HTTP front end: sends
// arbitrary byte streams (split, trickled, pipelined, malformed) and reads
// whatever comes back, with poll()-based timeouts so a server bug shows up
// as a test failure instead of a hung suite. Deliberately knows nothing
// about HttpClient — the point is to exercise the server below the level
// any well-behaved client would.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace lce::server::testing {

class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~RawClient() { close(); }

  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void shutdown_write() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }

  bool send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Send `bytes` in `chunk`-byte pieces with `gap` between them — the
  /// slow-loris shape when chunk == 1 and gap is long.
  bool send_slow(std::string_view bytes, std::size_t chunk,
                 std::chrono::milliseconds gap) {
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      if (!send_all(bytes.substr(off, chunk))) return false;
      if (off + chunk < bytes.size()) std::this_thread::sleep_for(gap);
    }
    return true;
  }

  /// Read until the peer closes or `timeout` elapses; returns everything.
  std::string read_until_closed(std::chrono::milliseconds timeout =
                                    std::chrono::milliseconds(5000)) {
    std::string out;
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (recv_step(out, deadline)) {
    }
    return out;
  }

  /// Read until `n` complete Content-Length-framed responses are buffered,
  /// the peer closes, or `timeout` elapses. Returns the raw bytes.
  std::string read_responses(int n, std::chrono::milliseconds timeout =
                                        std::chrono::milliseconds(5000)) {
    std::string out;
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (count_responses(out) < n && recv_step(out, deadline)) {
    }
    return out;
  }

  /// True when the server closed this connection before `timeout`.
  bool closed_by_peer(std::chrono::milliseconds timeout) {
    std::string sink;
    auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (fd_ < 0) return true;
      auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      pollfd pfd{fd_, POLLIN, 0};
      int timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc <= 0) continue;
      char chunk[4096];
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r == 0) return true;                    // orderly close
      if (r < 0 && errno != EINTR) return true;   // reset also counts
    }
  }

  /// Each complete response in `raw`, in order, walking status line ->
  /// content-length -> body, so bodies containing "HTTP/1.1" cannot split
  /// a response. A trailing incomplete response is dropped.
  static std::vector<std::string> split_responses(const std::string& raw) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < raw.size()) {
      std::size_t hdr_end = raw.find("\r\n\r\n", pos);
      if (hdr_end == std::string::npos) break;
      std::string headers = raw.substr(pos, hdr_end - pos);
      std::size_t body_len = 0;
      std::size_t cl = lower(headers).find("content-length:");
      if (cl != std::string::npos) {
        body_len = static_cast<std::size_t>(
            std::atoll(headers.c_str() + cl + 15));
      }
      if (raw.size() < hdr_end + 4 + body_len) break;
      out.push_back(raw.substr(pos, hdr_end + 4 + body_len - pos));
      pos = hdr_end + 4 + body_len;
    }
    return out;
  }

  /// Complete responses in `raw`.
  static int count_responses(const std::string& raw) {
    return static_cast<int>(split_responses(raw).size());
  }

  /// Status codes of every complete response in `raw`, in order.
  static std::vector<int> response_statuses(const std::string& raw) {
    std::vector<int> statuses;
    for (const std::string& resp : split_responses(raw)) {
      std::size_t sp = resp.find(' ');
      if (sp != std::string::npos) statuses.push_back(std::atoi(resp.c_str() + sp + 1));
    }
    return statuses;
  }

 private:
  static std::string lower(std::string s) {
    for (char& c : s) c = static_cast<char>(::tolower(static_cast<unsigned char>(c)));
    return s;
  }

  bool recv_step(std::string& out, std::chrono::steady_clock::time_point deadline) {
    if (fd_ < 0) return false;
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd_, POLLIN, 0};
    int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) return rc < 0 && errno == EINTR;
    char chunk[4096];
    ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r > 0) {
      out.append(chunk, static_cast<std::size_t>(r));
      return true;
    }
    return r < 0 && errno == EINTR;
  }

  int fd_ = -1;
};

}  // namespace lce::server::testing
