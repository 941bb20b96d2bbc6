#include "server/http.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "common/strings.h"
#include "server/http_parser.h"

namespace lce::server {
namespace {

/// One-shot parse: the first complete request in `raw`, or nullopt when it
/// is malformed or incomplete. The view borrows `parser`'s buffer.
std::optional<RequestView> parse_one(HttpParser& parser, std::string_view raw) {
  parser.feed(raw);
  RequestView view;
  if (parser.next_view(view) != ParseStatus::kRequest) return std::nullopt;
  return view;
}

bool rejects(std::string_view raw) {
  HttpParser parser;
  return !parse_one(parser, raw).has_value();
}

/// Answer 200 with `body` and no content-type.
void reply(ResponseWriter& writer, bool keep_alive, std::string_view body) {
  writer.begin(200, keep_alive, /*json_body=*/false);
  writer.body() += body;
  writer.finish();
}

TEST(HttpParse, BasicPostWithBody) {
  std::string raw =
      "POST /invoke HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"a\":\"b\"}!!";
  HttpParser parser;
  auto req = parse_one(parser, raw);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/invoke");
  ASSERT_NE(req->find_header("content-type"), nullptr);
  EXPECT_EQ(*req->find_header("content-type"), "application/json");
  EXPECT_EQ(req->body, "{\"a\":\"b\"}!!");
}

TEST(HttpParse, GetWithoutBody) {
  HttpParser parser;
  auto req = parse_one(parser, "GET /health HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(req);
  EXPECT_EQ(req->method, "GET");
  EXPECT_TRUE(req->body.empty());
}

TEST(HttpParse, HeaderKeysLowercased) {
  HttpParser parser;
  auto req = parse_one(parser, "GET / HTTP/1.1\r\nX-CuStOm: V\r\n\r\n");
  ASSERT_TRUE(req);
  ASSERT_NE(req->find_header("x-custom"), nullptr);
  EXPECT_EQ(*req->find_header("x-custom"), "V");
}

TEST(HttpParse, RejectsMalformed) {
  EXPECT_TRUE(rejects(""));
  EXPECT_TRUE(rejects("GET /\r\n\r\n"));          // no version
  EXPECT_TRUE(rejects("GET / SPDY/9\r\n\r\n"));   // bad proto
  EXPECT_TRUE(rejects("GET / HTTP/1.1\r\nbadheader\r\n\r\n"));
  // Body shorter than Content-Length -> incomplete.
  EXPECT_TRUE(rejects("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"));
}

TEST(HttpSerialize, ResponseCarriesLengthAndStatus) {
  std::string raw;
  int hint = 3;
  ResponseWriter writer(raw, hint);
  writer.begin(200, /*keep_alive=*/false, /*json_body=*/true);
  writer.body() += "{\"x\":1}";
  writer.finish();
  EXPECT_NE(raw.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(raw.find("content-length: 7\r\n"), std::string::npos);
  EXPECT_NE(raw.find("\r\n\r\n{\"x\":1}"), std::string::npos);
  EXPECT_EQ(status_text(404), "Not Found");
}

TEST(HttpServer, ServesOverLoopback) {
  HttpServer server([](const RequestView& req, bool keep_alive, ResponseWriter& writer) {
    reply(writer, keep_alive, strf("echo:", req.body, " path:", req.path));
  });
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  auto resp = http_request(port, "POST", "/x", "hello");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "echo:hello path:/x");
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, SequentialRequests) {
  int count = 0;
  HttpServer server([&](const RequestView&, bool keep_alive, ResponseWriter& writer) {
    reply(writer, keep_alive, std::to_string(++count));
  });
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  for (int i = 1; i <= 5; ++i) {
    auto resp = http_request(port, "GET", "/", "");
    ASSERT_TRUE(resp);
    EXPECT_EQ(resp->body, std::to_string(i));
  }
  server.stop();
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  HttpServer server([](const RequestView&, bool keep_alive, ResponseWriter& writer) {
    reply(writer, keep_alive, "");
  });
  ASSERT_NE(server.start(), 0);
  server.stop();
  server.stop();  // no-op
  EXPECT_NE(server.start(), 0);
  auto resp = http_request(server.port(), "GET", "/", "");
  EXPECT_TRUE(resp.has_value());
  server.stop();
}

TEST(HttpClient, ConnectFailureReturnsNullopt) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_FALSE(http_request(1, "GET", "/", "").has_value());
}

}  // namespace
}  // namespace lce::server
