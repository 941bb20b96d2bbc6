#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/strings.h"
#include "server/http_parser.h"

namespace lce::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Blocking write of the whole buffer; MSG_NOSIGNAL so a peer that went
/// away yields EPIPE instead of killing the process.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int status_for(ParseStatus st) {
  switch (st) {
    case ParseStatus::kHeadersTooLarge: return 431;
    case ParseStatus::kBodyTooLarge: return 413;
    default: return 400;
  }
}

/// Parse one complete Content-Length-framed response out of `buf` starting
/// at `pos`. Returns nullopt while incomplete; on success advances `pos`
/// past the consumed bytes (the caller compacts the dead prefix when it
/// grows large — a per-response front-erase is quadratic under deep
/// pipelining). `malformed` is set when the bytes can never become a
/// response.
std::optional<HttpResponse> pop_http_response(const std::string& buf, std::size_t& pos,
                                              bool* malformed) {
  *malformed = false;
  std::size_t hdr_end = buf.find("\r\n\r\n", pos);
  if (hdr_end == std::string::npos) return std::nullopt;
  auto lines = split(buf.substr(pos, hdr_end - pos), '\n');
  auto status_line = split_ws(trim(lines[0]));
  if (status_line.size() < 2 || !starts_with(status_line[0], "HTTP/1.")) {
    *malformed = true;
    return std::nullopt;
  }
  HttpResponse resp;
  std::int64_t status = 0;
  if (!parse_int(status_line[1], status)) {
    *malformed = true;
    return std::nullopt;
  }
  resp.status = static_cast<int>(status);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string line = trim(lines[i]);
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    resp.headers[to_lower(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
  }
  std::size_t content_length = 0;
  if (auto it = resp.headers.find("content-length"); it != resp.headers.end()) {
    std::int64_t n = 0;
    if (!parse_int(it->second, n) || n < 0) {
      *malformed = true;
      return std::nullopt;
    }
    content_length = static_cast<std::size_t>(n);
  }
  if (buf.size() < hdr_end + 4 + content_length) return std::nullopt;
  resp.body = buf.substr(hdr_end + 4, content_length);
  pos = hdr_end + 4 + content_length;
  return resp;
}

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound the wait for a wedged server so tests and the load generator
  // fail instead of hanging.
  timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

}  // namespace

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

void ResponseWriter::begin(int status, bool keep_alive, bool json_body) {
  out_ += "HTTP/1.1 ";
  char sbuf[16];
  int sn = std::snprintf(sbuf, sizeof(sbuf), "%d", status);
  out_.append(sbuf, static_cast<std::size_t>(sn));
  out_ += ' ';
  out_ += status_text(status);
  out_ += "\r\n";
  if (json_body) out_ += "content-type: application/json\r\n";
  out_ += "content-length: ";
  cl_pos_ = out_.size();
  // Reserve at the predicted width (clamped to a plausible digit count);
  // finish() fixes any misprediction by shifting only the short tail of
  // the head plus the body.
  reserved_ = hint_ < 1 ? 1 : hint_ > 19 ? 19 : hint_;
  out_.append(static_cast<std::size_t>(reserved_), '0');
  out_ += "\r\n";
  out_ += keep_alive ? "connection: keep-alive\r\n\r\n" : "connection: close\r\n\r\n";
  body_pos_ = out_.size();
}

void ResponseWriter::finish() {
  std::size_t body_len = out_.size() - body_pos_;
  char dbuf[24];
  int digits = std::snprintf(dbuf, sizeof(dbuf), "%zu", body_len);
  // Backpatch with minimal digits and no padding; the wire goldens pin
  // these bytes.
  if (digits > reserved_) {
    out_.insert(cl_pos_, static_cast<std::size_t>(digits - reserved_), '0');
  } else if (digits < reserved_) {
    out_.erase(cl_pos_, static_cast<std::size_t>(reserved_ - digits));
  }
  std::memcpy(&out_[cl_pos_], dbuf, static_cast<std::size_t>(digits));
  hint_ = digits;
}

// ---------------------------------------------------------------------------
// Event-loop server

namespace {

/// Per-connection state machine: the parser accumulates fragments, `out`
/// holds response bytes the kernel has not yet accepted, and `deadline`
/// implements the reap policy (refreshed only when a request completes).
/// `out` drains by cursor (`out_pos`) instead of front-erase, so a
/// pipelined burst renders every response into one contiguous buffer and
/// corks them into a single write.
struct ConnState {
  HttpParser parser;
  std::string out;
  std::size_t out_pos = 0;  // bytes before this are already sent
  RequestView view;         // reused across requests (warm header capacity)
  int cl_hint = 3;          // predicted Content-Length digit width
  Clock::time_point deadline;
  std::uint64_t requests = 0;
  bool close_after_flush = false;
  bool rd_done = false;  // peer sent FIN; stop watching EPOLLIN
  std::uint32_t armed = 0;  // epoll event mask currently registered

  explicit ConnState(ParserLimits limits) : parser(limits) {}

  std::size_t pending() const { return out.size() - out_pos; }
};

}  // namespace

struct HttpServer::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::unordered_map<int, ConnState> conns;
};

HttpServer::HttpServer(WireHandler handler, HttpServerOptions opts)
    : handler_(std::move(handler)), opts_(opts) {}

HttpServer::~HttpServer() { stop(); }

std::uint16_t HttpServer::start(std::uint16_t port) {
  if (running_.load()) return port_;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return 0;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 256) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  int n = opts_.io_threads;
  if (n <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    n = static_cast<int>(hw == 0 ? 1 : hw > 8 ? 8 : hw);
  }
  // Every loop polls the listen socket; EPOLLEXCLUSIVE (where available)
  // wakes one loop per pending connection instead of the whole herd, which
  // is also what spreads accepted connections across the loops.
  std::uint32_t listen_events = EPOLLIN;
#ifdef EPOLLEXCLUSIVE
  listen_events |= EPOLLEXCLUSIVE;
#endif
  for (int i = 0; i < n; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      continue;
    }
    epoll_event wev{};
    wev.events = EPOLLIN;
    wev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &wev);
    epoll_event lev{};
    lev.events = listen_events;
    lev.data.fd = listen_fd_;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
    loops_.push_back(std::move(loop));
  }
  if (loops_.empty()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return 0;
  }
  running_.store(true);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { run_loop(*l); });
  }
  return port_;
}

void HttpServer::stop() {
  if (!running_.exchange(false)) {
    // start() may have failed half-way or never run; nothing to join.
    loops_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  std::uint64_t one = 1;
  for (auto& loop : loops_) {
    [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    ::close(loop->wake_fd);
    ::close(loop->epoll_fd);
  }
  loops_.clear();
  // Closed after the join so a recycled descriptor number can never be
  // mistaken for the listen socket by a loop still draining events.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.requests_served = served_.load(std::memory_order_relaxed);
  s.keepalive_reuses = reused_.load(std::memory_order_relaxed);
  s.idle_reaped = reaped_.load(std::memory_order_relaxed);
  s.rejected_400 = rej400_.load(std::memory_order_relaxed);
  s.rejected_413 = rej413_.load(std::memory_order_relaxed);
  s.rejected_431 = rej431_.load(std::memory_order_relaxed);
  s.write_calls = writes_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::run_loop(Loop& loop) {
  std::array<epoll_event, 64> events;
  while (running_.load(std::memory_order_acquire)) {
    // Short tick while connections are live so idle deadlines are enforced
    // promptly; a longer one when the loop is empty.
    int timeout_ms = loop.conns.empty() ? 200 : 25;
    int n = ::epoll_wait(loop.epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == listen_fd_) {
        accept_new(loop);
      } else if (fd == loop.wake_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(loop.wake_fd, &drained, sizeof(drained));
      } else {
        handle_conn_event(loop, fd, events[static_cast<std::size_t>(i)].events);
      }
    }
    reap_idle(loop);
  }
  // Deterministic shutdown: abort every connection this loop owns.
  for (auto& [fd, conn] : loop.conns) {
    ::close(fd);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
  loop.conns.clear();
}

void HttpServer::accept_new(Loop& loop) {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN (another loop won the race) or shutdown
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    ConnState conn{ParserLimits{opts_.max_header_bytes, opts_.max_body_bytes}};
    conn.armed = EPOLLIN;
    conn.deadline = Clock::now() + std::chrono::milliseconds(
                                       opts_.idle_timeout_ms > 0 ? opts_.idle_timeout_ms
                                                                 : 0);
    loop.conns.emplace(fd, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {

/// Flush as much of conn.out as the kernel will take without blocking.
/// Returns false when the connection is dead (write error). Drains by
/// cursor; the buffer is recycled whole once empty (keeping its capacity)
/// and compacted only when a slow reader leaves a large dead prefix.
bool flush_some(int fd, ConnState& conn, std::atomic<std::uint64_t>& writes) {
  while (conn.pending() > 0) {
    // Count the write BEFORE the syscall (rolled back when it moves no
    // bytes): a peer that has read the response must observe the counter
    // already bumped, so tests can assert on write_calls the moment the
    // bytes arrive instead of racing the event loop.
    writes.fetch_add(1, std::memory_order_relaxed);
    ssize_t n = ::send(fd, conn.out.data() + conn.out_pos, conn.pending(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    writes.fetch_sub(1, std::memory_order_relaxed);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn.pending() == 0) {
    conn.out.clear();
    conn.out_pos = 0;
  } else if (conn.out_pos > 64 * 1024) {
    conn.out.erase(0, conn.out_pos);
    conn.out_pos = 0;
  }
  return true;
}

}  // namespace

void HttpServer::handle_conn_event(Loop& loop, int fd, std::uint32_t ev) {
  auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  ConnState& conn = it->second;

  auto close_conn = [&] {
    ::close(fd);  // also deregisters from epoll
    loop.conns.erase(it);
    closed_.fetch_add(1, std::memory_order_relaxed);
  };

  if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn();
    return;
  }

  bool peer_closed = false;
  if ((ev & EPOLLIN) != 0 && conn.close_after_flush) {
    // Already committed to closing: discard further input so level-
    // triggered readiness cannot spin while the final response drains.
    char sink[4096];
    for (;;) {
      ssize_t n = ::read(fd, sink, sizeof(sink));
      if (n > 0) continue;
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) conn.rd_done = true;
      break;
    }
  } else if ((ev & EPOLLIN) != 0) {
    char chunk[16384];
    for (;;) {
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn.parser.feed({chunk, static_cast<std::size_t>(n)});
      } else if (n == 0) {
        peer_closed = true;
        break;
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        close_conn();
        return;
      }

      // Drain every complete pipelined request before reading again, so
      // response order matches arrival order on the connection. The whole
      // burst renders into conn.out back to back and flushes as one write
      // below (corking). Views borrowed from the parser stay valid through
      // the handler call because nothing feeds the parser until this loop
      // finishes.
      for (;;) {
        ParseStatus st = conn.parser.next_view(conn.view);
        if (st == ParseStatus::kNeedMore) break;
        if (st == ParseStatus::kRequest) {
          ++conn.requests;
          served_.fetch_add(1, std::memory_order_relaxed);
          if (conn.requests > 1) reused_.fetch_add(1, std::memory_order_relaxed);
          bool keep =
              wants_keep_alive(conn.view) && running_.load(std::memory_order_acquire);
          if (opts_.max_requests_per_conn > 0 &&
              conn.requests >= static_cast<std::uint64_t>(opts_.max_requests_per_conn)) {
            keep = false;
          }
          ResponseWriter writer(conn.out, conn.cl_hint);
          handler_(conn.view, keep, writer);
          if (opts_.idle_timeout_ms > 0) {
            conn.deadline =
                Clock::now() + std::chrono::milliseconds(opts_.idle_timeout_ms);
          }
          if (!keep) {
            conn.close_after_flush = true;
            break;
          }
        } else {
          int status = status_for(st);
          (status == 431   ? rej431_
           : status == 413 ? rej413_
                           : rej400_)
              .fetch_add(1, std::memory_order_relaxed);
          ResponseWriter writer(conn.out, conn.cl_hint);
          writer.begin(status, /*keep_alive=*/false, /*json_body=*/false);
          writer.body() += "malformed request";
          writer.finish();
          conn.close_after_flush = true;
          break;
        }
      }
      if (conn.close_after_flush) break;  // discard any remaining input
    }
  }

  if (peer_closed) {
    conn.rd_done = true;
    if (conn.parser.buffered() > 0 && conn.pending() == 0) {
      // The peer half-closed mid-request; it can still read the verdict.
      rej400_.fetch_add(1, std::memory_order_relaxed);
      ResponseWriter writer(conn.out, conn.cl_hint);
      writer.begin(400, /*keep_alive=*/false, /*json_body=*/false);
      writer.body() += "truncated request";
      writer.finish();
    }
    conn.close_after_flush = true;
  }

  if (!flush_some(fd, conn, writes_)) {
    close_conn();
    return;
  }
  if (conn.pending() == 0 && conn.close_after_flush) {
    close_conn();
    return;
  }
  // Re-arm: EPOLLOUT only while a write is pending; drop EPOLLIN once the
  // peer sent FIN (a half-closed socket is permanently read-ready and
  // would otherwise spin the level-triggered loop).
  std::uint32_t want = (conn.pending() == 0 ? 0u : static_cast<std::uint32_t>(EPOLLOUT)) |
                       (conn.rd_done ? 0u : static_cast<std::uint32_t>(EPOLLIN));
  if (want != conn.armed) {
    conn.armed = want;
    epoll_event mod{};
    mod.events = want;
    mod.data.fd = fd;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, fd, &mod);
  }
}

void HttpServer::reap_idle(Loop& loop) {
  if (opts_.idle_timeout_ms <= 0) return;
  auto now = Clock::now();
  for (auto it = loop.conns.begin(); it != loop.conns.end();) {
    if (now >= it->second.deadline) {
      // Counters before close(): a client observing our FIN must already
      // see the reap reflected in stats().
      closed_.fetch_add(1, std::memory_order_relaxed);
      reaped_.fetch_add(1, std::memory_order_relaxed);
      ::close(it->first);
      it = loop.conns.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Clients

bool HttpClient::ensure_connected() {
  if (fd_ >= 0) return true;
  fd_ = connect_loopback(port_);
  if (fd_ < 0) return false;
  ++opens_;
  return true;
}

void HttpClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  inpos_ = 0;
}

bool HttpClient::send_request(const std::string& method, const std::string& path,
                              const std::string& body, bool keep_alive) {
  if (!ensure_connected()) return false;
  std::string req = strf(method, " ", path, " HTTP/1.1\r\nhost: 127.0.0.1\r\n",
                         "content-type: application/json\r\n",
                         "content-length: ", body.size(), "\r\nconnection: ",
                         keep_alive ? "keep-alive" : "close", "\r\n\r\n", body);
  if (!send_all(fd_, req)) {
    disconnect();
    return false;
  }
  return true;
}

std::optional<HttpResponse> HttpClient::read_response(bool* got_bytes) {
  if (fd_ < 0) return std::nullopt;
  for (;;) {
    bool malformed = false;
    auto resp = pop_http_response(inbuf_, inpos_, &malformed);
    if (resp) {
      // Compact once the dead prefix dominates.
      if (inpos_ == inbuf_.size()) {
        inbuf_.clear();
        inpos_ = 0;
      } else if (inpos_ > 64 * 1024 && inpos_ > inbuf_.size() / 2) {
        inbuf_.erase(0, inpos_);
        inpos_ = 0;
      }
      return resp;
    }
    if (malformed) return std::nullopt;
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      *got_bytes = true;
      inbuf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;  // EOF or error
  }
}

std::optional<HttpResponse> HttpClient::request(const std::string& method,
                                                const std::string& path,
                                                const std::string& body,
                                                bool keep_alive) {
  // A reused connection may have been reaped server-side between requests
  // (idle timeout, max-requests) — that surfaces as a send failure or an
  // immediate EOF, and one reconnect-and-retry is always safe because
  // nothing of this request was processed.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool fresh = fd_ < 0;
    if (!ensure_connected()) return std::nullopt;
    if (!send_request(method, path, body, keep_alive)) {
      if (fresh) return std::nullopt;
      continue;
    }
    bool got_bytes = false;
    auto resp = read_response(&got_bytes);
    if (!resp) {
      disconnect();
      if (!fresh && !got_bytes) continue;  // stale keep-alive connection
      return std::nullopt;
    }
    bool server_keeps = keep_alive;
    if (auto itc = resp->headers.find("connection"); itc != resp->headers.end()) {
      server_keeps = !contains(to_lower(itc->second), "close");
    }
    if (!keep_alive || !server_keeps) disconnect();
    return resp;
  }
  return std::nullopt;
}

std::optional<HttpResponse> http_request(std::uint16_t port, const std::string& method,
                                         const std::string& path,
                                         const std::string& body) {
  HttpClient client(port);
  return client.request(method, path, body, /*keep_alive=*/false);
}

}  // namespace lce::server
