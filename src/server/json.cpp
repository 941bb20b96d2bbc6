#include "server/json.h"

#include <cctype>

#include "common/strings.h"

namespace lce::server {

std::string JsonError::to_text() const {
  return strf("json error at offset ", offset, ": ", message);
}

namespace {

// Recursive-descent scanner that constructs the tree in place via
// Value::set/append with interned keys (arena-backed while an ArenaScope is
// active).
class Parser {
 public:
  Parser(std::string_view text, JsonError* error) : text_(text), error_(error) {}

  std::optional<Value> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(std::string msg) {
    if (error_ != nullptr && error_->message.empty()) {
      *error_ = JsonError{pos_, std::move(msg)};
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  // Scans a string body (caller consumed the opening quote) and leaves the
  // decoded bytes in `out`. Escape-free strings borrow straight from the
  // input; anything with an escape is decoded into `scratch_`, which stays
  // valid only until the next string_body call — callers must consume the
  // view (intern it / wrap it in a Value) before parsing further.
  bool string_body(std::string_view& out) {
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        out = text_.substr(start, pos_ - start);
        ++pos_;
        return true;
      }
      if (c == '\\') return string_body_escaped(start, out);
      ++pos_;
    }
    pos_ = text_.size();
    fail("unterminated string");
    return false;
  }

  // Slow path once the first backslash is seen: replay the escape-free
  // prefix into scratch_ and decode the rest byte by byte.
  bool string_body_escaped(std::size_t start, std::string_view& out) {
    scratch_.assign(text_.substr(start, pos_ - start));
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        out = scratch_;
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': scratch_ += '"'; break;
          case '\\': scratch_ += '\\'; break;
          case '/': scratch_ += '/'; break;
          case 'n': scratch_ += '\n'; break;
          case 't': scratch_ += '\t'; break;
          case 'r': scratch_ += '\r'; break;
          case 'b': scratch_ += '\b'; break;
          case 'f': scratch_ += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return false;
              }
            }
            // Basic-plane UTF-8 encoding (surrogates unsupported).
            if (code < 0x80) {
              scratch_ += static_cast<char>(code);
            } else if (code < 0x800) {
              scratch_ += static_cast<char>(0xC0 | (code >> 6));
              scratch_ += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              scratch_ += static_cast<char>(0xE0 | (code >> 12));
              scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              scratch_ += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail(strf("unknown escape '\\", e, "'"));
            return false;
        }
      } else {
        scratch_ += c;
      }
    }
    pos_ = text_.size();
    fail("unterminated string");
    return false;
  }

  std::optional<Value> value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      // Duplicate keys: last one wins (Value::set overwrites).
      Value map = Value::empty_map();
      skip_ws();
      if (consume('}')) return map;
      while (true) {
        skip_ws();
        if (!consume('"')) {
          fail("expected object key");
          return std::nullopt;
        }
        std::string_view key_view;
        if (!string_body(key_view)) return std::nullopt;
        // Intern the key before the value parse reuses scratch_.
        KeyId key_id = intern_key(key_view);
        if (!consume(':')) {
          fail("expected ':'");
          return std::nullopt;
        }
        auto v = value();
        if (!v) return std::nullopt;
        map.set(key_id, std::move(*v));
        if (consume(',')) continue;
        if (consume('}')) return map;
        fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      Value list = Value::empty_list();
      skip_ws();
      if (consume(']')) return list;
      while (true) {
        auto v = value();
        if (!v) return std::nullopt;
        list.append(std::move(*v));
        if (consume(',')) continue;
        if (consume(']')) return list;
        fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
    if (c == '"') {
      ++pos_;
      std::string_view s;
      if (!string_body(s)) return std::nullopt;
      return Value(s);
    }
    if (literal("true")) return Value(true);
    if (literal("false")) return Value(false);
    if (literal("null")) return Value();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' ||
                                  text_[pos_] == 'E')) {
        fail("non-integer numbers unsupported");
        return std::nullopt;
      }
      std::int64_t n = 0;
      if (!parse_int(text_.substr(start, pos_ - start), n)) {
        fail("bad number");
        return std::nullopt;
      }
      return Value(n);
    }
    fail(strf("unexpected character '", c, "'"));
    return std::nullopt;
  }

  std::string_view text_;
  JsonError* error_;
  std::size_t pos_ = 0;
  std::string scratch_;  // decoded bytes of the last escaped string
};

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void serialize(const Value& v, std::string& out) {
  switch (v.kind()) {
    case ValueKind::kNull: out += "null"; return;
    case ValueKind::kBool: out += v.as_bool() ? "true" : "false"; return;
    case ValueKind::kInt: out += std::to_string(v.as_int()); return;
    case ValueKind::kStr:
    case ValueKind::kRef: append_json_string(out, v.as_str()); return;
    case ValueKind::kList: {
      out += '[';
      bool first = true;
      for (const auto& e : v.as_list()) {
        if (!first) out += ',';
        first = false;
        serialize(e, out);
      }
      out += ']';
      return;
    }
    case ValueKind::kMap: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_map()) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, k);
        out += ':';
        serialize(e, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::optional<Value> parse_json(std::string_view text, JsonError* error) {
  return Parser(text, error).run();
}

std::string to_json(const Value& v) {
  std::string out;
  serialize(v, out);
  return out;
}

void append_json(const Value& v, std::string& out) { serialize(v, out); }

}  // namespace lce::server
