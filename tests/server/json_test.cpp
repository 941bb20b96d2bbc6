#include "server/json.h"

#include <gtest/gtest.h>

namespace lce::server {
namespace {

TEST(Json, ScalarRoundTrips) {
  for (const char* doc : {"null", "true", "false", "0", "42", "-7", "\"hi\"", "\"\""}) {
    JsonError err;
    auto v = parse_json(doc, &err);
    ASSERT_TRUE(v.has_value()) << doc << ": " << err.to_text();
    EXPECT_EQ(to_json(*v), doc) << doc;
  }
}

TEST(Json, ObjectAndArrayRoundTrip) {
  std::string doc = R"({"a":[1,2,{"b":true}],"c":null,"d":"x"})";
  JsonError err;
  auto v = parse_json(doc, &err);
  ASSERT_TRUE(v) << err.to_text();
  EXPECT_EQ(to_json(*v), doc);
  EXPECT_EQ(v->get("a")->as_list()[2].get("b")->as_bool(), true);
}

TEST(Json, WhitespaceTolerated) {
  auto v = parse_json(" { \"a\" :\n[ 1 , 2 ] } ");
  ASSERT_TRUE(v);
  EXPECT_EQ(v->get("a")->as_list().size(), 2u);
}

TEST(Json, EscapesDecodedAndReencoded) {
  JsonError err;
  auto v = parse_json(R"("line\n\"quote\"\t\\u0041:A")", &err);
  ASSERT_TRUE(v) << err.to_text();
  EXPECT_EQ(v->as_str(), "line\n\"quote\"\t\\u0041:A");
  auto back = parse_json(to_json(*v));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->as_str(), v->as_str());
}

TEST(Json, UnicodeEscapeEncodesUtf8) {
  auto v = parse_json(R"("é€")");
  ASSERT_TRUE(v);
  EXPECT_EQ(v->as_str(), "\xC3\xA9\xE2\x82\xAC");  // é €
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* doc :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"unterminated",
        "{\"a\":1}extra", "1.5", "1e3", "{a:1}", "[1 2]", "\"bad\\q\""}) {
    JsonError err;
    EXPECT_FALSE(parse_json(doc, &err).has_value()) << doc;
    EXPECT_FALSE(err.message.empty()) << doc;
  }
}

TEST(Json, RefsSerializeAsPlainStrings) {
  Value::Map m{{"id", Value::ref("vpc-00000001")}};
  EXPECT_EQ(to_json(Value(m)), R"({"id":"vpc-00000001"})");
}

TEST(Json, ControlCharactersEscaped) {
  Value v(std::string("a\x01" "b"));
  EXPECT_EQ(to_json(v), "\"a\\u0001b\"");
}

TEST(Json, DeeplyNestedStructures) {
  std::string doc;
  for (int i = 0; i < 50; ++i) doc += "[";
  doc += "1";
  for (int i = 0; i < 50; ++i) doc += "]";
  auto v = parse_json(doc);
  ASSERT_TRUE(v);
  EXPECT_EQ(to_json(*v), doc);
}

TEST(Json, DeeplyNestedMixedObjectsAndArraysRoundTrip) {
  std::string doc;
  for (int i = 0; i < 150; ++i) doc += R"({"k":[)";
  doc += "null";
  for (int i = 0; i < 150; ++i) doc += "]}";
  JsonError err;
  auto v = parse_json(doc, &err);
  ASSERT_TRUE(v) << err.to_text();
  EXPECT_EQ(to_json(*v), doc);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  struct Case {
    const char* doc;
    const char* utf8;
  };
  for (const Case& c : {Case{"\"\\u0041\"", "A"},             // 1-byte
                        Case{"\"\\u00e9\"", "\xC3\xA9"},      // 2-byte é
                        Case{"\"\\u20AC\"", "\xE2\x82\xAC"},  // 3-byte €
                        Case{"\"\\u4e2d\"", "\xE4\xB8\xAD"}}) {  // 3-byte 中
    JsonError err;
    auto v = parse_json(c.doc, &err);
    ASSERT_TRUE(v) << c.doc << ": " << err.to_text();
    EXPECT_EQ(v->as_str(), c.utf8) << c.doc;
    // Re-encoding emits raw UTF-8 (not an escape); parsing that again
    // yields the same string.
    auto back = parse_json(to_json(*v), &err);
    ASSERT_TRUE(back) << c.doc << ": " << err.to_text();
    EXPECT_EQ(back->as_str(), v->as_str()) << c.doc;
  }
}

TEST(Json, TruncatedOrBadUnicodeEscapesRejected) {
  for (const char* doc : {R"("\u")", R"("\u12")", R"("\u123")", R"("\uZZZZ")",
                          R"("\u12G4")"}) {
    JsonError err;
    EXPECT_FALSE(parse_json(doc, &err).has_value()) << doc;
    EXPECT_FALSE(err.message.empty()) << doc;
  }
}

TEST(Json, TrickyStringsSurviveEncodeParseRoundTrip) {
  const std::string tricky[] = {
      "plain",
      "with \"quotes\" inside",
      "backslash \\ and slash /",
      "newline\nand\ttab\rand\bback\fform",
      std::string("embedded\0nul", 12),
      "\x01\x02\x1F",                    // control chars -> \u00XX escapes
      "\xC3\xA9 caf\xC3\xA9 \xE2\x82\xAC" "100",  // raw UTF-8 passes through
      "trailing backslash \\",
      "\\u0041 is a literal, not an escape",
  };
  for (const std::string& s : tricky) {
    JsonError err;
    auto v = parse_json(to_json(Value(s)), &err);
    ASSERT_TRUE(v) << to_json(Value(s)) << ": " << err.to_text();
    EXPECT_EQ(v->as_str(), s) << to_json(Value(s));
  }
}

TEST(Json, TrickyMapKeysRoundTrip) {
  Value::Map m;
  m["with \"quote"] = Value(1);
  m["tab\there"] = Value(2);
  m["\xC3\xA9"] = Value(3);
  JsonError err;
  auto v = parse_json(to_json(Value(m)), &err);
  ASSERT_TRUE(v) << err.to_text();
  EXPECT_EQ(v->get("with \"quote")->as_int(), 1);
  EXPECT_EQ(v->get("tab\there")->as_int(), 2);
  EXPECT_EQ(v->get("\xC3\xA9")->as_int(), 3);
}

}  // namespace
}  // namespace lce::server
