#include "rawclient.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace perfbench {

RawConn::~RawConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool RawConn::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
  buf_.resize(64 * 1024);
  return true;
}

bool RawConn::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool frame_response(std::string_view data, int* status, std::size_t* body_at,
                    std::size_t* body_len, std::size_t* total) {
  std::size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return false;
  std::string_view head = data.substr(0, head_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return false;
  std::size_t sp = head.find(' ');
  if (sp == std::string_view::npos || sp + 4 > head.size()) return false;
  int code = 0;
  for (std::size_t i = sp + 1; i < sp + 4; ++i) {
    if (head[i] < '0' || head[i] > '9') return false;
    code = code * 10 + (head[i] - '0');
  }
  std::size_t length = 0;
  bool have_length = false;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    std::size_t next = head.find("\r\n", pos + 2);
    std::string_view line = head.substr(pos + 2, next == std::string_view::npos
                                                       ? std::string_view::npos
                                                       : next - pos - 2);
    static constexpr std::string_view kName = "content-length:";
    if (line.size() > kName.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kName.size(); ++i) {
        char c = line[i];
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        if (c != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t i = kName.size();
        while (i < line.size() && line[i] == ' ') ++i;
        for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
          length = length * 10 + static_cast<std::size_t>(line[i] - '0');
        }
        have_length = true;
      }
    }
    pos = next;
  }
  if (!have_length) return false;
  std::size_t need = head_end + 4 + length;
  if (data.size() < need) return false;
  *status = code;
  *body_at = head_end + 4;
  *body_len = length;
  *total = need;
  return true;
}

bool RawConn::frame() {
  return frame_response(std::string_view(buf_.data(), len_), &status_, &body_at_, &body_len_,
                        &total_);
}

RawConn::Read RawConn::read_some() {
  if (total_ != 0) return Read::kResponse;
  if (len_ == buf_.size()) buf_.resize(buf_.size() * 2);
  ssize_t n = ::recv(fd_, buf_.data() + len_, buf_.size() - len_, 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return Read::kNeedMore;
  if (n <= 0) return Read::kError;
  len_ += static_cast<std::size_t>(n);
  return frame() ? Read::kResponse : Read::kNeedMore;
}

void RawConn::consume() {
  if (total_ == 0) return;
  std::size_t rest = len_ - total_;
  if (rest != 0) std::memmove(buf_.data(), buf_.data() + total_, rest);
  len_ = rest;
  total_ = 0;
  frame();
}

bool RawConn::roundtrip(std::string_view request) {
  if (!send_all(request)) return false;
  for (;;) {
    Read r = read_some();
    if (r == Read::kResponse) return true;
    if (r == Read::kError) return false;
  }
}

}  // namespace perfbench
