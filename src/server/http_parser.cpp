#include "server/http_parser.h"

#include <cctype>

#include "common/strings.h"

namespace lce::server {

namespace {

bool is_ws(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string_view trim_view(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_ws(s[b])) ++b;
  while (e > b && is_ws(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Exactly-three tokenization of the request line, where a token is a
/// maximal non-whitespace run — the view-borrowing equivalent of
/// `split_ws(trim(line)).size() == 3`.
bool split3_ws(std::string_view s, std::string_view out[3]) {
  int n = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_ws(s[i])) ++i;
    if (i >= s.size()) break;
    std::size_t start = i;
    while (i < s.size() && !is_ws(s[i])) ++i;
    if (n == 3) return false;
    out[n++] = s.substr(start, i - start);
  }
  return n == 3;
}

/// Case-insensitive substring search without allocating; `needle` must
/// already be lower-case.
bool contains_icase(std::string_view hay, std::string_view needle) {
  if (hay.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
    std::size_t j = 0;
    while (j < needle.size() &&
           std::tolower(static_cast<unsigned char>(hay[i + j])) == needle[j]) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

}  // namespace

void HttpParser::feed(std::string_view bytes) {
  // Reclaim the consumed prefix before appending — this is the moment any
  // previously returned RequestView dies (header comment contract).
  if (base_ > 0) {
    if (base_ == buf_.size()) {
      buf_.clear();  // common keep-alive steady state: nothing to move
    } else {
      buf_.erase(0, base_);
    }
    base_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

void HttpParser::reset() {
  buf_.clear();
  base_ = 0;
  error_ = ParseStatus::kNeedMore;
}

ParseStatus HttpParser::fail(ParseStatus status) {
  error_ = status;
  return status;
}

/// Pop one LF-terminated line starting at `pos`, stripping the optional
/// preceding CR. Returns false when no full line is buffered.
bool HttpParser::next_line(std::size_t& pos, std::string_view& line) {
  std::size_t nl = buf_.find('\n', pos);
  if (nl == std::string::npos) return false;
  std::size_t end = nl;
  if (end > pos && buf_[end - 1] == '\r') --end;
  line = std::string_view(buf_).substr(pos, end - pos);
  pos = nl + 1;
  return true;
}

ParseStatus HttpParser::next_view(RequestView& out) {
  if (error_ != ParseStatus::kNeedMore) return error_;

  // RFC 9112 §2.2: tolerate stray blank lines before the request line
  // (clients that end the previous body with an extra CRLF). Consume them
  // permanently so a blank-line flood cannot grow the buffer unboundedly.
  for (;;) {
    if (base_ + 1 < buf_.size() && buf_[base_] == '\r' && buf_[base_ + 1] == '\n') {
      base_ += 2;
    } else if (base_ < buf_.size() && buf_[base_] == '\n') {
      base_ += 1;
    } else {
      break;
    }
  }

  std::size_t pos = base_;
  std::string_view line;
  if (!next_line(pos, line)) {
    if (buf_.size() - base_ > limits_.max_header_bytes) {
      return fail(ParseStatus::kHeadersTooLarge);
    }
    return ParseStatus::kNeedMore;
  }
  std::string_view parts[3];
  if (!split3_ws(line, parts) || !starts_with(parts[2], "HTTP/1.")) {
    return fail(ParseStatus::kBadRequest);
  }
  out.method = parts[0];
  out.path = parts[1];
  out.version_minor = parts[2] == "HTTP/1.0" ? 0 : 1;
  out.headers.clear();
  out.body = {};

  for (;;) {
    if (!next_line(pos, line)) {
      if (buf_.size() - base_ > limits_.max_header_bytes) {
        return fail(ParseStatus::kHeadersTooLarge);
      }
      return ParseStatus::kNeedMore;
    }
    if (line.empty()) break;  // blank line: end of headers
    if (pos - base_ > limits_.max_header_bytes) return fail(ParseStatus::kHeadersTooLarge);
    // Obsolete line folding (a continuation line starting with whitespace)
    // is a smuggling vector; RFC 7230 §3.2.4 lets servers reject it.
    if (line[0] == ' ' || line[0] == '\t') return fail(ParseStatus::kBadRequest);
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return fail(ParseStatus::kBadRequest);
    std::string_view key = trim_view(line.substr(0, colon));
    // Whitespace inside a header name means the request line bled into the
    // header block (or vice versa) — unparseable, not just unusual.
    if (key.find(' ') != std::string_view::npos ||
        key.find('\t') != std::string_view::npos) {
      return fail(ParseStatus::kBadRequest);
    }
    // Lower-case the name in place in the buffer — idempotent, so a
    // kNeedMore reparse over the same bytes is harmless.
    std::size_t key_off = static_cast<std::size_t>(key.data() - buf_.data());
    for (std::size_t i = 0; i < key.size(); ++i) {
      buf_[key_off + i] =
          static_cast<char>(std::tolower(static_cast<unsigned char>(buf_[key_off + i])));
    }
    out.headers.emplace_back(key, trim_view(line.substr(colon + 1)));
  }

  if (out.find_header("transfer-encoding") != nullptr) {
    // Content-Length framing only; chunked bodies are rejected rather than
    // mis-framed (request-smuggling hygiene).
    return fail(ParseStatus::kBadRequest);
  }
  std::size_t content_length = 0;
  if (const std::string_view* cl = out.find_header("content-length"); cl != nullptr) {
    std::int64_t n = 0;
    if (!parse_int(*cl, n) || n < 0) return fail(ParseStatus::kBadRequest);
    if (static_cast<std::size_t>(n) > limits_.max_body_bytes) {
      return fail(ParseStatus::kBodyTooLarge);
    }
    content_length = static_cast<std::size_t>(n);
  }
  if (buf_.size() - pos < content_length) return ParseStatus::kNeedMore;
  out.body = std::string_view(buf_).substr(pos, content_length);
  base_ = pos + content_length;
  return ParseStatus::kRequest;
}

bool wants_keep_alive(const RequestView& req) {
  if (const std::string_view* v = req.find_header("connection"); v != nullptr) {
    if (contains_icase(*v, "close")) return false;
    if (contains_icase(*v, "keep-alive")) return true;
  }
  return req.version_minor >= 1;
}

}  // namespace lce::server
