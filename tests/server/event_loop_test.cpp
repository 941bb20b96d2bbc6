// Event-loop behavior tests for the epoll front end (ISSUE 6): slow-loris
// and idle-timeout reaping, keep-alive connection accounting through
// HttpClient and /metrics, and deterministic start/stop/restart under
// concurrent load. These suites run under TSan in CI (ci_env.sh matches
// SlowLoris|KeepAlive|Hammer).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/reference_cloud.h"
#include "common/value.h"
#include "docs/corpus.h"
#include "raw_client.h"
#include "server/http.h"
#include "server/json.h"
#include "server/service.h"

namespace lce::server {
namespace {

using testing::RawClient;

void echo_handler(const RequestView& req, bool keep_alive, ResponseWriter& writer) {
  writer.begin(200, keep_alive, /*json_body=*/false);
  writer.body() += req.path;
  writer.finish();
}

// ---------------------------------------------------------------------------
// Slow-loris and idle-timeout reaping. The deadline refreshes only when a
// request COMPLETES, so trickling one byte per interval cannot hold a
// connection open past the idle window.

TEST(SlowLoris, SilentConnectionIsReaped) {
  HttpServerOptions opts;
  opts.io_threads = 2;
  opts.idle_timeout_ms = 300;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  RawClient idle(port);
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(idle.closed_by_peer(std::chrono::milliseconds(3000)));
  EXPECT_GE(server.stats().idle_reaped, 1u);
  server.stop();
}

TEST(SlowLoris, TricklingHeadersCannotOutliveTheIdleWindow) {
  HttpServerOptions opts;
  opts.io_threads = 2;
  opts.idle_timeout_ms = 300;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  RawClient loris(port);
  ASSERT_TRUE(loris.ok());
  // Drip an incomplete request at ~1 byte / 60ms. Each byte arrives well
  // inside the idle window, but no request ever completes, so the deadline
  // never refreshes and the connection dies around idle_timeout_ms.
  auto start = std::chrono::steady_clock::now();
  std::thread dripper([&] {
    loris.send_slow("GET /never-finishes HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaa",
                    1, std::chrono::milliseconds(60));
  });
  bool reaped = loris.closed_by_peer(std::chrono::milliseconds(5000));
  auto held_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  dripper.join();
  EXPECT_TRUE(reaped);
  // Generous upper bound (reap tick granularity + CI scheduling), but far
  // below the ~3.4s the drip would take if trickling reset the deadline.
  EXPECT_LT(held_ms, 3000);
  EXPECT_GE(server.stats().idle_reaped, 1u);
  server.stop();
}

TEST(SlowLoris, ServerStaysResponsiveWhileLorisConnectionsLinger) {
  HttpServerOptions opts;
  opts.io_threads = 2;
  opts.idle_timeout_ms = 400;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  // A handful of half-open connections trickling garbage headers.
  std::vector<std::unique_ptr<RawClient>> lorises;
  for (int i = 0; i < 4; ++i) {
    lorises.push_back(std::make_unique<RawClient>(port));
    ASSERT_TRUE(lorises.back()->ok());
    ASSERT_TRUE(lorises.back()->send_all("GET /stall HTTP/1.1\r\nX-"));
  }
  // Fresh connections must keep getting immediate service throughout.
  for (int i = 0; i < 5; ++i) {
    auto resp = http_request(port, "GET", "/alive", "");
    ASSERT_TRUE(resp.has_value()) << "round " << i;
    EXPECT_EQ(resp->status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // By now (>400ms elapsed) the stalled connections are gone.
  for (auto& loris : lorises) {
    EXPECT_TRUE(loris->closed_by_peer(std::chrono::milliseconds(2000)));
  }
  EXPECT_GE(server.stats().idle_reaped, 4u);
  server.stop();
}

TEST(SlowLoris, CompletedRequestsRefreshTheIdleDeadline) {
  HttpServerOptions opts;
  opts.io_threads = 1;
  opts.idle_timeout_ms = 400;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  // A well-behaved keep-alive client issuing a request every ~200ms stays
  // connected well past the idle window.
  HttpClient client(port);
  for (int i = 0; i < 6; ++i) {
    auto resp = client.request("GET", "/tick", "");
    ASSERT_TRUE(resp.has_value()) << "round " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  EXPECT_EQ(client.connections_opened(), 1u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Keep-alive accounting through HttpClient, option enforcement, and the
// /metrics "server" section.

TEST(KeepAliveServer, ClientReusesOneConnectionAcrossRequests) {
  HttpServerOptions opts;
  opts.io_threads = 2;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  HttpClient client(port);
  for (int i = 0; i < 20; ++i) {
    auto resp = client.request("GET", "/r", "");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 1u);
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_served, 20u);
  EXPECT_EQ(stats.keepalive_reuses, 19u);
  server.stop();
}

TEST(KeepAliveServer, ExplicitCloseOpensAConnectionPerRequest) {
  HttpServer server(echo_handler, HttpServerOptions{});
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  HttpClient client(port);
  for (int i = 0; i < 5; ++i) {
    auto resp = client.request("GET", "/r", "", /*keep_alive=*/false);
    ASSERT_TRUE(resp.has_value());
  }
  EXPECT_EQ(client.connections_opened(), 5u);
  EXPECT_EQ(server.stats().connections_accepted, 5u);
  EXPECT_EQ(server.stats().keepalive_reuses, 0u);
  server.stop();
}

TEST(KeepAliveServer, MaxRequestsPerConnForcesRotation) {
  HttpServerOptions opts;
  opts.io_threads = 1;
  opts.max_requests_per_conn = 4;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  // 12 requests at 4-per-connection: the server closes every 4th response
  // (connection: close) and the client transparently reconnects.
  HttpClient client(port);
  for (int i = 0; i < 12; ++i) {
    auto resp = client.request("GET", "/rotate", "");
    ASSERT_TRUE(resp.has_value()) << "request " << i;
    EXPECT_EQ(resp->status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 3u);
  EXPECT_EQ(server.stats().connections_accepted, 3u);
  EXPECT_EQ(server.stats().requests_served, 12u);
  server.stop();
}

TEST(KeepAliveServer, StaleConnectionRetriedTransparently) {
  HttpServerOptions opts;
  opts.io_threads = 1;
  opts.idle_timeout_ms = 200;
  HttpServer server(echo_handler, opts);
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  HttpClient client(port);
  ASSERT_TRUE(client.request("GET", "/a", "").has_value());
  // Let the server reap the idle connection out from under the client.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  auto resp = client.request("GET", "/b", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);
  server.stop();
}

TEST(KeepAliveServer, MetricsExposeServerCounters) {
  // Default stack config installs the metrics layer, so /metrics serves
  // and gains the front end's "server" section.
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  EmulatorEndpoint endpoint(cloud);
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  HttpClient client(port);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.request("GET", "/health", "").has_value());
  }
  auto resp = client.request("GET", "/metrics", "");
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->status, 200);
  auto value = parse_json(resp->body);
  ASSERT_TRUE(value.has_value());
  const Value::Map& body = value->as_map();
  ASSERT_TRUE(body.count("server"));
  const Value::Map& srv = body.at("server").as_map();
  EXPECT_GE(srv.at("connections_accepted").as_int(), 1);
  EXPECT_GE(srv.at("requests_served").as_int(), 4);
  EXPECT_GE(srv.at("keepalive_reuses").as_int(), 3);
  EXPECT_EQ(srv.at("rejected_400").as_int(), 0);
  endpoint.stop();
}

// ---------------------------------------------------------------------------
// Deterministic shutdown: stop() must terminate promptly with idle
// keep-alive connections parked, and start/stop/restart must survive
// concurrent in-flight requests without hanging or crashing.

TEST(ShutdownHammer, StopIsPromptWithIdleKeepAliveConnections) {
  HttpServer server(echo_handler, HttpServerOptions{});
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  // Park idle keep-alive connections; none will ever send another byte.
  std::vector<std::unique_ptr<RawClient>> parked;
  for (int i = 0; i < 6; ++i) {
    parked.push_back(std::make_unique<RawClient>(port));
    ASSERT_TRUE(parked.back()->send_all("GET /park HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(RawClient::count_responses(parked.back()->read_responses(1)), 1);
  }
  auto start = std::chrono::steady_clock::now();
  server.stop();
  auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  // stop() wakes every loop via eventfd; it must not wait out the idle
  // timeout (30s default) or any epoll tick backlog.
  EXPECT_LT(stop_ms, 2000);
  // All parked connections were torn down by shutdown.
  for (auto& conn : parked) {
    EXPECT_TRUE(conn->closed_by_peer(std::chrono::milliseconds(2000)));
  }
  EXPECT_FALSE(server.running());
}

TEST(ShutdownHammer, RestartCyclesUnderConcurrentLoad) {
  HttpServer server(echo_handler, HttpServerOptions{});
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::uint16_t port = server.start();
    ASSERT_NE(port, 0) << "cycle " << cycle;

    std::atomic<int> ok{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        HttpClient client(port);
        for (int i = 0; i < 25; ++i) {
          auto resp = client.request("GET", "/hammer", "");
          // Requests racing stop() may fail; that's the point. They must
          // never hang or crash.
          if (resp.has_value() && resp->status == 200) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // Stop midway through the request storm every other cycle to exercise
    // both drain-while-busy and drain-while-quiet shutdown paths.
    if (cycle % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } else {
      for (auto& w : workers) w.join();
      workers.clear();
    }
    server.stop();
    for (auto& w : workers) w.join();
    EXPECT_FALSE(server.running());
    EXPECT_GE(ok.load(), 1) << "cycle " << cycle;
  }
  // One final clean cycle proves the listener is reusable after the storm.
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  auto resp = http_request(port, "GET", "/final", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  server.stop();
}

TEST(ShutdownHammer, StopIsIdempotentAndStartAfterStopWorks) {
  HttpServer server(echo_handler, HttpServerOptions{});
  server.stop();  // never started: no-op
  std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  server.stop();
  server.stop();  // double stop: no-op
  std::uint16_t port2 = server.start();
  ASSERT_NE(port2, 0);
  auto resp = http_request(port2, "GET", "/again", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  server.stop();
}

}  // namespace
}  // namespace lce::server
