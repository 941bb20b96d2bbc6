#include "spec/lexer.h"

#include <cctype>

#include "common/strings.h"

namespace lce::spec {

namespace {

class Lexer {
 public:
  Lexer(std::string_view src, LexError* error) : src_(src), error_(error) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (true) {
      skip_ws_and_comments();
      if (pos_ >= src_.size()) break;
      Token t = next_token();
      if (failed_) return {};
      out.push_back(std::move(t));
    }
    Token eof;
    eof.kind = TokKind::kEof;
    eof.line = line_;
    eof.col = col_;
    out.push_back(std::move(eof));
    return out;
  }

 private:
  char peek(std::size_t off = 0) const {
    return pos_ + off < src_.size() ? src_[pos_ + off] : '\0';
  }

  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws_and_comments() {
    while (pos_ < src_.size()) {
      char c = peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (pos_ < src_.size() && peek() != '\n') advance();
      } else {
        break;
      }
    }
  }

  void fail(std::string msg) { fail(std::move(msg), line_, col_); }

  void fail(std::string msg, int line, int col) {
    if (error_ != nullptr) *error_ = LexError{std::move(msg), line, col};
    failed_ = true;
  }

  Token next_token() {
    Token t;
    t.line = line_;
    t.col = col_;
    char c = peek();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
        ident += advance();
      }
      t.kind = TokKind::kIdent;
      t.text = std::move(ident);
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string num;
      while (std::isdigit(static_cast<unsigned char>(peek()))) num += advance();
      t.kind = TokKind::kInt;
      t.text = num;
      if (!parse_int(num, t.int_value)) {
        fail("integer literal out of range", t.line, t.col);
      }
      return t;
    }
    if (c == '"') {
      advance();
      std::string s;
      while (pos_ < src_.size() && peek() != '"') {
        char d = advance();
        if (d == '\\' && pos_ < src_.size()) {
          char e = advance();
          switch (e) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            default: s += e;
          }
        } else {
          s += d;
        }
      }
      if (pos_ >= src_.size()) {
        fail("unterminated string literal");
        return t;
      }
      advance();  // closing quote
      t.kind = TokKind::kString;
      t.text = std::move(s);
      return t;
    }
    // Two-char operators first.
    static constexpr std::string_view kTwo[] = {"==", "!=", "<=", ">=", "&&",
                                                "||", "->"};
    for (std::string_view op : kTwo) {
      if (c == op[0] && peek(1) == op[1]) {
        advance();
        advance();
        t.kind = TokKind::kSymbol;
        t.text = std::string(op);
        return t;
      }
    }
    static constexpr std::string_view kOne = "{}(),;:.=<>!+-*/";
    if (kOne.find(c) != std::string_view::npos) {
      advance();
      t.kind = TokKind::kSymbol;
      t.text = std::string(1, c);
      return t;
    }
    fail(strf("unexpected character '", c, "'"));
    return t;
  }

  std::string_view src_;
  LexError* error_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  bool failed_ = false;
};

}  // namespace

std::vector<Token> lex(std::string_view src, LexError* error) {
  return Lexer(src, error).run();
}

}  // namespace lce::spec
