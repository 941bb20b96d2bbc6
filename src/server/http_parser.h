// Incremental, resumable HTTP/1.1 request parser for the epoll front end
// (DESIGN.md "Serving front end"). Bytes arrive in arbitrary fragments —
// a header split mid-name, a body trickling one byte at a time, or three
// pipelined requests in one read — and the parser carries state across
// feed() calls so the event loop never blocks waiting for a complete
// request. next_view() pops one request at a time, which is what makes
// pipelining work: the connection keeps calling it until the buffer runs
// dry.
//
// Zero-copy contract (DESIGN.md "Wire fast path"): next_view() emits a
// `RequestView` that BORROWS the parser's input buffer — method, path,
// header names/values, and body are string_views into bytes the socket
// already delivered; nothing is copied out. Consumed bytes are tracked by
// an offset and reclaimed lazily: feed() compacts the buffer, so every
// outstanding view is invalidated by the next feed() (or reset()). The
// event loop honors this by fully handling each request before reading
// again; a caller that needs a request past that point copies the views.
//
// Framing is Content-Length only (Transfer-Encoding is rejected — the
// emulator protocol never chunks). Both CRLF and bare-LF line endings are
// accepted; header names are lower-cased in place in the buffer. Limits
// are enforced while parsing, so a connection spraying unbounded header
// bytes is rejected after `max_header_bytes`, not buffered forever.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "server/http.h"

namespace lce::server {

enum class ParseStatus {
  kNeedMore,         // no complete request buffered yet — feed more bytes
  kRequest,          // `out` holds the next parsed request
  kBadRequest,       // malformed request line / header (HTTP 400)
  kHeadersTooLarge,  // header section exceeds max_header_bytes (HTTP 431)
  kBodyTooLarge,     // declared Content-Length exceeds max_body_bytes (HTTP 413)
};

struct ParserLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 16 * 1024 * 1024;
};

class HttpParser {
 public:
  HttpParser() = default;
  explicit HttpParser(ParserLimits limits) : limits_(limits) {}

  /// Append raw bytes from the socket. Cheap; all parsing happens in
  /// next_view(). Compacts the already-consumed prefix, INVALIDATING any
  /// RequestView handed out earlier.
  void feed(std::string_view bytes);

  /// Pop the next complete request as borrowed views into the parser's
  /// buffer (valid until the next feed()/reset()). Error statuses are
  /// sticky: once a connection has produced garbage its remaining bytes
  /// cannot be trusted, so the caller responds and closes. reset()
  /// re-arms the parser for a fresh connection.
  ParseStatus next_view(RequestView& out);

  void reset();

  /// Bytes buffered but not yet consumed by a completed request — nonzero
  /// at peer close means the final request was truncated.
  std::size_t buffered() const { return buf_.size() - base_; }

 private:
  ParseStatus fail(ParseStatus status);
  bool next_line(std::size_t& pos, std::string_view& line);

  std::string buf_;
  std::size_t base_ = 0;  // bytes before base_ are consumed, reclaimed by feed()
  ParserLimits limits_;
  ParseStatus error_ = ParseStatus::kNeedMore;  // sticky once != kNeedMore
};

/// HTTP keep-alive negotiation: "Connection: close" always closes,
/// "Connection: keep-alive" always holds, otherwise HTTP/1.1 defaults to
/// keep-alive and HTTP/1.0 to close.
bool wants_keep_alive(const RequestView& req);

}  // namespace lce::server
