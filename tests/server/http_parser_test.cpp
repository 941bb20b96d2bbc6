// HTTP conformance/torture suite for the incremental parser and the wire
// behavior of the epoll front end (ISSUE 6): bytes arriving one at a time
// or in random fragments, pipelined requests, CRLF-vs-LF and header-case
// edge cases, oversized-header/body rejection, and malformed input that
// must produce a 400 without wedging the server. The Fuzz tests are the
// differential harness: chunked incremental parsing must agree exactly
// with a one-shot parse of the same bytes, on garbage as well as on
// mutated valid requests.
#include "server/http_parser.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "raw_client.h"
#include "server/http.h"

namespace lce::server {
namespace {

using testing::RawClient;

const char kPost[] =
    "POST /invoke HTTP/1.1\r\n"
    "Host: 127.0.0.1\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 11\r\n"
    "\r\n"
    "{\"a\":\"b\"}!!";

/// Owning copy of one parsed request, so requests can be collected across
/// feed() calls (which invalidate the views). Duplicate header names keep
/// the last occurrence, like RequestView::find_header.
struct OwnedRequest {
  std::string method;
  std::string path;
  std::map<std::string, std::string> headers;
  std::string body;
  int version_minor = 1;
};

OwnedRequest own(const RequestView& view) {
  OwnedRequest out;
  out.method.assign(view.method);
  out.path.assign(view.path);
  for (const auto& [k, v] : view.headers) out.headers[std::string(k)] = std::string(v);
  out.body.assign(view.body);
  out.version_minor = view.version_minor;
  return out;
}

/// Value of header `name`, or "<absent>".
std::string_view header(const RequestView& req, std::string_view name) {
  const std::string_view* v = req.find_header(name);
  return v != nullptr ? *v : "<absent>";
}

/// Pop every complete request, then return the terminal status.
struct DrainResult {
  std::vector<OwnedRequest> requests;
  ParseStatus terminal = ParseStatus::kNeedMore;
};

DrainResult drain(HttpParser& parser) {
  DrainResult out;
  for (;;) {
    RequestView req;
    ParseStatus st = parser.next_view(req);
    if (st == ParseStatus::kRequest) {
      out.requests.push_back(own(req));
      continue;
    }
    out.terminal = st;
    return out;
  }
}

void expect_same_request(const OwnedRequest& a, const OwnedRequest& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.version_minor, b.version_minor);
  EXPECT_EQ(a.headers, b.headers);
  EXPECT_EQ(a.body, b.body);
}

TEST(HttpParserTorture, ByteAtATimeYieldsTheSameRequest) {
  HttpParser parser;
  std::string raw = kPost;
  RequestView req;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    parser.feed({&raw[i], 1});
    EXPECT_EQ(parser.next_view(req), ParseStatus::kNeedMore) << "at byte " << i;
  }
  parser.feed({&raw[raw.size() - 1], 1});
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/invoke");
  EXPECT_EQ(header(req, "content-type"), "application/json");
  EXPECT_EQ(req.body, "{\"a\":\"b\"}!!");
}

TEST(HttpParserTorture, RandomSplitsMatchOneShotParse) {
  std::string raw = strf(kPost, "GET /health HTTP/1.1\r\nX-Probe: 1\r\n\r\n", kPost);
  HttpParser reference;
  reference.feed(raw);
  DrainResult expected = drain(reference);
  ASSERT_EQ(expected.requests.size(), 3u);

  Rng rng(7);
  for (int iter = 0; iter < 64; ++iter) {
    HttpParser parser;
    DrainResult got;
    std::size_t pos = 0;
    while (pos < raw.size()) {
      std::size_t n = 1 + rng.uniform(9);
      if (n > raw.size() - pos) n = raw.size() - pos;
      parser.feed({raw.data() + pos, n});
      pos += n;
      DrainResult step = drain(parser);
      for (auto& r : step.requests) got.requests.push_back(std::move(r));
      got.terminal = step.terminal;
    }
    ASSERT_EQ(got.requests.size(), expected.requests.size()) << "iter " << iter;
    for (std::size_t i = 0; i < got.requests.size(); ++i) {
      expect_same_request(got.requests[i], expected.requests[i]);
    }
    EXPECT_EQ(got.terminal, expected.terminal);
  }
}

TEST(HttpParserTorture, DuplicateHeaderLastWinsUnderFragmentation) {
  // Two pipelined requests fed in 1-byte, 3-byte and whole-stream chunks:
  // names are lower-cased in place, and the duplicate's LAST value wins.
  const std::string raw =
      "POST /invoke HTTP/1.1\r\nHost: x\r\nX-Dup: first\r\n"
      "Content-Length: 4\r\nX-DUP: last\r\n\r\nbody"
      "GET /health HTTP/1.0\r\n\r\n";
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, raw.size()}) {
    SCOPED_TRACE(chunk);
    HttpParser parser;
    std::vector<OwnedRequest> got;
    for (std::size_t off = 0; off < raw.size(); off += chunk) {
      parser.feed(std::string_view(raw).substr(off, chunk));
      RequestView view;
      ParseStatus st;
      while ((st = parser.next_view(view)) == ParseStatus::kRequest) {
        for (const auto& [name, value] : view.headers) {
          EXPECT_EQ(std::string(name), to_lower(std::string(name)));
        }
        if (view.method == "POST") {
          EXPECT_EQ(header(view, "x-dup"), "last");
        }
        got.push_back(own(view));  // before the next feed() invalidates it
      }
      ASSERT_EQ(st, ParseStatus::kNeedMore);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].method, "POST");
    EXPECT_EQ(got[0].body, "body");
    EXPECT_EQ(got[1].method, "GET");
    EXPECT_EQ(got[1].version_minor, 0);
  }
}

TEST(HttpParserTorture, PipelinedRequestsPopInOrder) {
  HttpParser parser;
  parser.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz"
      "GET /c HTTP/1.1\r\n\r\n");
  RequestView req;
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.path, "/a");
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.path, "/b");
  EXPECT_EQ(req.body, "xyz");
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.path, "/c");
  EXPECT_EQ(parser.next_view(req), ParseStatus::kNeedMore);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpParserTorture, BareLfAndMixedLineEndingsAccepted) {
  HttpParser parser;
  parser.feed("GET /health HTTP/1.1\nHost: x\ncontent-length: 2\n\nok");
  RequestView req;
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.path, "/health");
  EXPECT_EQ(req.body, "ok");

  HttpParser mixed;
  mixed.feed("GET / HTTP/1.1\r\nA: 1\nB: 2\r\n\n");
  ASSERT_EQ(mixed.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(header(req, "a"), "1");
  EXPECT_EQ(header(req, "b"), "2");
}

TEST(HttpParserTorture, HeaderNamesLowercasedValuesTrimmed) {
  HttpParser parser;
  parser.feed("GET / HTTP/1.1\r\nX-CuStOm-HeAdEr:    spaced value  \r\n\r\n");
  RequestView req;
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(header(req, "x-custom-header"), "spaced value");
}

TEST(HttpParserTorture, LeadingBlankLinesBeforeRequestSkipped) {
  HttpParser parser;
  parser.feed("\r\n\r\n\nGET /x HTTP/1.1\r\n\r\n");
  RequestView req;
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.path, "/x");
}

TEST(HttpParserTorture, Http10VersionCaptured) {
  HttpParser parser;
  parser.feed("GET / HTTP/1.0\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  RequestView req;
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.version_minor, 0);
  ASSERT_EQ(parser.next_view(req), ParseStatus::kRequest);
  EXPECT_EQ(req.version_minor, 1);
}

TEST(HttpParserTorture, MalformedInputsDrawBadRequest) {
  const char* cases[] = {
      "GET /\r\n\r\n",                                // no version
      "GET / SPDY/9\r\n\r\n",                         // wrong protocol
      "GET / HTTP/1.1 extra\r\n\r\n",                 // 4-token request line
      "GET / HTTP/1.1\r\nbadheader\r\n\r\n",          // no colon
      "GET / HTTP/1.1\r\n: novalue\r\n\r\n",          // empty name
      "GET / HTTP/1.1\r\nbad name: v\r\n\r\n",        // space in name
      "GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n",   // obsolete folding
      "POST / HTTP/1.1\r\ncontent-length: -4\r\n\r\n",
      "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
      "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
  };
  for (const char* raw : cases) {
    HttpParser parser;
    parser.feed(raw);
    RequestView req;
    EXPECT_EQ(parser.next_view(req), ParseStatus::kBadRequest) << raw;
    // Sticky: feeding a valid request afterwards cannot resurrect it.
    parser.feed(kPost);
    EXPECT_EQ(parser.next_view(req), ParseStatus::kBadRequest) << raw;
  }
}

TEST(HttpParserTorture, OversizedHeadersRejectedEvenWhileIncomplete) {
  HttpParser parser(ParserLimits{64, 1024});
  parser.feed("GET / HTTP/1.1\r\nX-Pad: ");
  RequestView req;
  EXPECT_EQ(parser.next_view(req), ParseStatus::kNeedMore);
  parser.feed(std::string(200, 'a'));  // never terminates the header block
  EXPECT_EQ(parser.next_view(req), ParseStatus::kHeadersTooLarge);
}

TEST(HttpParserTorture, OversizedBodyRejectedFromDeclaredLength) {
  HttpParser parser(ParserLimits{1024, 8});
  parser.feed("POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n");
  RequestView req;
  // Rejected on the declared length alone — no body bytes needed.
  EXPECT_EQ(parser.next_view(req), ParseStatus::kBodyTooLarge);
}

TEST(HttpParserTorture, ResetReArmsAfterError) {
  HttpParser parser;
  parser.feed("garbage\r\n\r\n");
  RequestView req;
  EXPECT_EQ(parser.next_view(req), ParseStatus::kBadRequest);
  parser.reset();
  parser.feed(kPost);
  EXPECT_EQ(parser.next_view(req), ParseStatus::kRequest);
}

TEST(HttpParserTorture, KeepAliveNegotiation) {
  auto req_with = [](int minor, const char* connection) {
    RequestView req;
    req.version_minor = minor;
    if (connection != nullptr) req.headers.emplace_back("connection", connection);
    return req;
  };
  EXPECT_TRUE(wants_keep_alive(req_with(1, nullptr)));         // 1.1 default
  EXPECT_FALSE(wants_keep_alive(req_with(1, "close")));
  EXPECT_FALSE(wants_keep_alive(req_with(1, "Close")));        // case-insensitive
  EXPECT_FALSE(wants_keep_alive(req_with(0, nullptr)));        // 1.0 default
  EXPECT_TRUE(wants_keep_alive(req_with(0, "keep-alive")));
  EXPECT_TRUE(wants_keep_alive(req_with(1, "Keep-Alive")));
}

// ---------------------------------------------------------------------------
// Differential fuzz: incremental parsing of random chunkings must agree
// exactly with a one-shot parse of the same byte stream.

DrainResult parse_chunked(const std::string& bytes, Rng& rng) {
  HttpParser parser;
  DrainResult out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t n = 1 + rng.uniform(17);
    if (n > bytes.size() - pos) n = bytes.size() - pos;
    parser.feed({bytes.data() + pos, n});
    pos += n;
    DrainResult step = drain(parser);
    for (auto& r : step.requests) out.requests.push_back(std::move(r));
    out.terminal = step.terminal;
  }
  return out;
}

void expect_differential_match(const std::string& bytes, Rng& rng, int iter) {
  HttpParser reference;
  reference.feed(bytes);
  DrainResult expected = drain(reference);
  DrainResult got = parse_chunked(bytes, rng);
  ASSERT_EQ(got.requests.size(), expected.requests.size()) << "iter " << iter;
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    expect_same_request(got.requests[i], expected.requests[i]);
  }
  EXPECT_EQ(got.terminal, expected.terminal) << "iter " << iter;
}

TEST(HttpParserFuzz, RandomByteStreamsNeverCrashAndMatchOneShot) {
  Rng rng(20260809);
  for (int iter = 0; iter < 400; ++iter) {
    std::size_t len = rng.uniform(400);
    std::string bytes(len, '\0');
    for (char& c : bytes) {
      // Bias toward protocol-ish bytes so the header machinery is reached.
      std::uint64_t roll = rng.uniform(10);
      c = roll < 3   ? "GETPOST /:\r\n 1."[rng.uniform(16)]
          : roll < 6 ? static_cast<char>('a' + rng.uniform(26))
                     : static_cast<char>(rng.uniform(256));
    }
    expect_differential_match(bytes, rng, iter);
  }
}

TEST(HttpParserFuzz, MutatedValidRequestsMatchOneShot) {
  std::string seed_req = strf(kPost, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
  Rng rng(99);
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes = seed_req;
    int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      std::size_t at = rng.uniform(bytes.size());
      switch (rng.uniform(3)) {
        case 0: bytes[at] = static_cast<char>(rng.uniform(256)); break;
        case 1: bytes.erase(at, 1 + rng.uniform(4)); break;
        default:
          bytes.insert(at, std::string(1 + rng.uniform(4),
                                       static_cast<char>(rng.uniform(256))));
      }
    }
    expect_differential_match(bytes, rng, iter);
  }
}

// ---------------------------------------------------------------------------
// Wire-level torture: the same edge cases through a live epoll server.

class HttpTorture : public ::testing::Test {
 protected:
  HttpServerOptions opts() {
    HttpServerOptions o;
    o.io_threads = 2;
    o.idle_timeout_ms = 10000;
    return o;
  }

  /// Echo server: body identifies method/path/body so pipelined response
  /// ORDER is observable.
  HttpServer make_server(HttpServerOptions o) {
    return HttpServer(
        [](const RequestView& req, bool keep_alive, ResponseWriter& writer) {
          writer.begin(200, keep_alive, /*json_body=*/false);
          writer.body() += strf(req.method, " ", req.path, " [", req.body, "]");
          writer.finish();
        },
        o);
  }
};

TEST_F(HttpTorture, ByteAtATimeRequestStillServed) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send_slow(kPost, 1, std::chrono::milliseconds(0)));
  std::string raw = client.read_responses(1);
  EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{200}));
  EXPECT_NE(raw.find("POST /invoke [{\"a\":\"b\"}!!]"), std::string::npos);
  server.stop();
}

TEST_F(HttpTorture, RandomFragmentedSendsAcrossOneConnection) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  Rng rng(5);
  RawClient client(port);
  ASSERT_TRUE(client.ok());
  std::string stream = strf(kPost, kPost, kPost);
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t n = 1 + rng.uniform(13);
    if (n > stream.size() - pos) n = stream.size() - pos;
    ASSERT_TRUE(client.send_all(std::string_view(stream).substr(pos, n)));
    pos += n;
  }
  std::string raw = client.read_responses(3);
  EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{200, 200, 200}));
  server.stop();
}

TEST_F(HttpTorture, PipelinedRequestsAnswerInOrder) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send_all(
      "GET /one HTTP/1.1\r\n\r\n"
      "GET /two HTTP/1.1\r\n\r\n"
      "GET /three HTTP/1.1\r\n\r\n"));
  std::string raw = client.read_responses(3);
  EXPECT_EQ(RawClient::count_responses(raw), 3);
  std::size_t one = raw.find("GET /one");
  std::size_t two = raw.find("GET /two");
  std::size_t three = raw.find("GET /three");
  ASSERT_NE(one, std::string::npos);
  ASSERT_NE(two, std::string::npos);
  ASSERT_NE(three, std::string::npos);
  EXPECT_LT(one, two);
  EXPECT_LT(two, three);
  server.stop();
}

TEST_F(HttpTorture, KeepAliveThenCloseNegotiation) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.ok());
  // Default 1.1 keep-alive holds the connection across requests, then an
  // explicit close drops it after the final response.
  ASSERT_TRUE(client.send_all("GET /a HTTP/1.1\r\n\r\n"));
  std::string first = client.read_responses(1);
  EXPECT_EQ(RawClient::count_responses(first), 1);
  EXPECT_NE(first.find("connection: keep-alive"), std::string::npos);
  ASSERT_TRUE(client.send_all("GET /b HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string second = client.read_until_closed();
  EXPECT_EQ(RawClient::count_responses(second), 1);
  EXPECT_NE(second.find("connection: close"), std::string::npos);
  EXPECT_TRUE(client.closed_by_peer(std::chrono::milliseconds(2000)));
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_served, 2u);
  EXPECT_EQ(stats.keepalive_reuses, 1u);
  server.stop();
}

TEST_F(HttpTorture, Http10DefaultsToCloseUnlessKeepAliveRequested) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  {
    RawClient client(port);
    ASSERT_TRUE(client.send_all("GET /old HTTP/1.0\r\n\r\n"));
    std::string raw = client.read_until_closed();
    EXPECT_EQ(RawClient::count_responses(raw), 1);
    EXPECT_NE(raw.find("connection: close"), std::string::npos);
  }
  {
    RawClient client(port);
    ASSERT_TRUE(client.send_all("GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    std::string raw = client.read_responses(1);
    EXPECT_NE(raw.find("connection: keep-alive"), std::string::npos);
    ASSERT_TRUE(client.send_all("GET /again HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    EXPECT_EQ(RawClient::count_responses(client.read_responses(1)), 1);
  }
  server.stop();
}

TEST_F(HttpTorture, MalformedRequestLineGets400WithoutWedgingTheServer) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  {
    RawClient bad(port);
    ASSERT_TRUE(bad.send_all("NONSENSE\r\n\r\n"));
    std::string raw = bad.read_until_closed();
    EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{400}));
  }
  // The rejected connection must not leak state into new ones.
  auto resp = http_request(port, "GET", "/after", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_GE(server.stats().rejected_400, 1u);
  server.stop();
}

TEST_F(HttpTorture, OversizedHeadersDraw431) {
  HttpServerOptions o = opts();
  o.max_header_bytes = 256;
  auto server = make_server(o);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.send_all(
      strf("GET / HTTP/1.1\r\nX-Pad: ", std::string(1024, 'p'), "\r\n\r\n")));
  std::string raw = client.read_until_closed();
  EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{431}));
  EXPECT_GE(server.stats().rejected_431, 1u);
  server.stop();
}

TEST_F(HttpTorture, OversizedBodyDraws413) {
  HttpServerOptions o = opts();
  o.max_body_bytes = 128;
  auto server = make_server(o);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.send_all("POST /big HTTP/1.1\r\ncontent-length: 4096\r\n\r\n"));
  // Rejected on the declared length — the body never needs to be sent.
  std::string raw = client.read_until_closed();
  EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{413}));
  EXPECT_GE(server.stats().rejected_413, 1u);
  server.stop();
}

TEST_F(HttpTorture, TruncatedRequestGets400OnHalfClose) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.send_all("POST /partial HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"));
  client.shutdown_write();
  std::string raw = client.read_until_closed();
  EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{400}));
  server.stop();
}

TEST_F(HttpTorture, BareLfRequestServedOverTheWire) {
  auto server = make_server(opts());
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.send_all("GET /lf HTTP/1.1\nHost: x\n\n"));
  std::string raw = client.read_responses(1);
  EXPECT_EQ(RawClient::response_statuses(raw), (std::vector<int>{200}));
  EXPECT_NE(raw.find("GET /lf"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace lce::server
