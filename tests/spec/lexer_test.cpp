#include "spec/lexer.h"

#include <gtest/gtest.h>

namespace lce::spec {
namespace {

TEST(Lexer, EmptyInputYieldsEof) {
  LexError err;
  auto toks = lex("", &err);
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokKind::kEof);
}

TEST(Lexer, IdentifiersAndKeywordsAreIdents) {
  LexError err;
  auto toks = lex("sm Vpc create _x a1", &err);
  ASSERT_EQ(toks.size(), 6u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(toks[i].kind, TokKind::kIdent);
  EXPECT_EQ(toks[1].text, "Vpc");
  EXPECT_EQ(toks[3].text, "_x");
}

TEST(Lexer, IntegerLiterals) {
  LexError err;
  auto toks = lex("0 42 123456", &err);
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].int_value, 42);
  EXPECT_EQ(toks[2].int_value, 123456);
}

TEST(Lexer, IntegerLiteralOutOfRangeFails) {
  LexError err;
  auto toks = lex("9223372036854775807", &err);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].int_value, INT64_MAX);

  auto bad = lex("a\n  9223372036854775808 b", &err);
  EXPECT_TRUE(bad.empty());
  EXPECT_EQ(err.message, "integer literal out of range");
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.col, 3);  // the literal's first digit
}

TEST(Lexer, StringLiteralsWithEscapes) {
  LexError err;
  auto toks = lex(R"("abc" "a\"b" "x\ny")", &err);
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "abc");
  EXPECT_EQ(toks[1].text, "a\"b");
  EXPECT_EQ(toks[2].text, "x\ny");
}

TEST(Lexer, UnterminatedStringFails) {
  LexError err;
  auto toks = lex("\"abc", &err);
  EXPECT_TRUE(toks.empty());
  EXPECT_NE(err.message.find("unterminated"), std::string::npos);
}

TEST(Lexer, TwoCharOperatorsBeforeOneChar) {
  LexError err;
  auto toks = lex("== != <= >= && || = < >", &err);
  ASSERT_EQ(toks.size(), 10u);
  EXPECT_EQ(toks[0].text, "==");
  EXPECT_EQ(toks[4].text, "&&");
  EXPECT_EQ(toks[6].text, "=");
  EXPECT_EQ(toks[7].text, "<");
}

TEST(Lexer, CommentsSkippedToEol) {
  LexError err;
  auto toks = lex("a // comment == stuff\nb", &err);
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, TracksLineNumbers) {
  LexError err;
  auto toks = lex("a\nb\n  c", &err);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_GT(toks[2].col, 1);
}

TEST(Lexer, RejectsUnexpectedCharacter) {
  LexError err;
  auto toks = lex("a # b", &err);
  EXPECT_TRUE(toks.empty());
  EXPECT_EQ(err.line, 1);
}

TEST(Lexer, SymbolHelpers) {
  LexError err;
  auto toks = lex("{ sm", &err);
  EXPECT_TRUE(toks[0].is_symbol("{"));
  EXPECT_FALSE(toks[0].is_ident("{"));
  EXPECT_TRUE(toks[1].is_ident("sm"));
}

}  // namespace
}  // namespace lce::spec
