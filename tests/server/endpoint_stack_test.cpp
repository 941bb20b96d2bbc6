// The full layer chain behind a live socket: concurrent clients hammering
// an EmulatorEndpoint built over the default stack (metrics -> validate,
// plus serialize over the reference cloud, which is not thread_safe()),
// plus fault-seeded endpoints surfacing injected chaos as HTTP status
// codes. The "Hammer" tests are the ThreadSanitizer targets wired
// into scripts/tier1.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "server/json.h"
#include "server/service.h"
#include "stack/layers.h"

namespace lce::server {
namespace {

TEST(EndpointStack, HammerFullChainKeepsCountsAndStateConsistent) {
  // Parallel clients mixing writes and reads through every layer at once.
  // Afterwards the metrics layer's totals must equal the exact request
  // count — the stack may not lose or double-count under contention — and
  // the snapshot must hold one resource per create.
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  EmulatorEndpoint endpoint(cloud);
  ASSERT_EQ(endpoint.stack().layer_names(),
            (std::vector<std::string>{"metrics", "validate", "serialize"}));
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::vector<std::thread> clients;
  std::mutex mu;
  std::set<std::string> ids;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto created =
            invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
        if (!created.ok) {
          ++failures;
          continue;
        }
        std::string id(created.data.get("id")->as_str());
        // Read back; the id travels as a plain string and the validate
        // layer re-tags it.
        auto described = invoke_over_http(port, "DescribeVpc", {{"id", Value(id)}});
        if (!described.ok) ++failures;
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(id);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));

  auto snap = parse_json(http_request(port, "GET", "/snapshot")->body);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->as_map().size(), static_cast<std::size_t>(kThreads * kPerThread));

  auto metrics = parse_json(http_request(port, "GET", "/metrics")->body);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->get("total")->get("calls")->as_int(), 2 * kThreads * kPerThread);
  EXPECT_EQ(metrics->get("total")->get("errors")->as_int(), 0);
  endpoint.stop();
}

TEST(EndpointStack, HammerShardedInterpreterEndpointWithoutSerializeGate) {
  // The interpreter backend is thread_safe(), so the default stack must
  // NOT install the serialize gate — requests hit the sharded store
  // concurrently — yet counts, snapshot size, and per-id state must come
  // out exactly as if serialized. This is the serve-path tentpole's
  // end-to-end TSan target.
  auto emulator = core::LearnedEmulator::from_docs(
      docs::render_corpus(docs::build_aws_catalog()));
  EmulatorEndpoint endpoint(emulator.backend());
  auto layers = endpoint.stack().layer_names();
  EXPECT_EQ(std::count(layers.begin(), layers.end(), "serialize"), 0)
      << "thread-safe backend should skip the serialize gate by default";
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::vector<std::thread> clients;
  std::mutex mu;
  std::set<std::string> ids;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Unique CIDR per op keeps sibling-conflict checks out of play.
        auto created = invoke_over_http(
            port, "CreateVpc",
            {{"cidr_block", Value(strf("10.", t * kPerThread + i, ".0.0/16"))}});
        if (!created.ok) {
          ++failures;
          continue;
        }
        std::string id(created.data.get("id")->as_str());
        auto described = invoke_over_http(port, "DescribeVpc", {{"id", Value(id)}});
        if (!described.ok) ++failures;
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(id);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));

  auto snap = parse_json(http_request(port, "GET", "/snapshot")->body);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->as_map().size(), static_cast<std::size_t>(kThreads * kPerThread));

  auto metrics = parse_json(http_request(port, "GET", "/metrics")->body);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->get("total")->get("calls")->as_int(), 2 * kThreads * kPerThread);
  EXPECT_EQ(metrics->get("total")->get("errors")->as_int(), 0);
  endpoint.stop();
}

TEST(EndpointStack, HammerMetricsEndpointWhileInvoking) {
  // Scraping GET /metrics concurrently with traffic must neither crash nor
  // return torn JSON (the metrics snapshot is built under the layer lock).
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  EmulatorEndpoint endpoint(cloud);
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_scrapes{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      auto resp = http_request(port, "GET", "/metrics");
      if (!resp || resp->status != 200 || !parse_json(resp->body)) ++bad_scrapes;
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        if (!invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}})
                 .ok) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  stop = true;
  scraper.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad_scrapes.load(), 0);
  endpoint.stop();
}

TEST(EndpointStack, FaultSeededEndpointSurfacesThrottlingAs429) {
  // throttle_rate = 1.0: every invoke is rejected before reaching the
  // backend, and the injected fault maps to HTTP 429 (not the generic 400
  // used for real API failures).
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  stack::StackConfig config;
  config.fault_seed = 7;
  config.fault.throttle_rate = 1.0;
  config.fault.error_rate = 0.0;
  EmulatorEndpoint endpoint(cloud, config);
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  auto resp = invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, "RequestLimitExceeded");

  auto raw = http_request(port, "POST", "/invoke",
                          R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/16"}})");
  ASSERT_TRUE(raw);
  EXPECT_EQ(raw->status, 429);

  // Nothing reached the backend; the metrics layer still saw both calls.
  auto snap = parse_json(http_request(port, "GET", "/snapshot")->body);
  ASSERT_TRUE(snap);
  EXPECT_TRUE(snap->as_map().empty());
  auto metrics = parse_json(http_request(port, "GET", "/metrics")->body);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->get("total")->get("calls")->as_int(), 2);
  EXPECT_EQ(metrics->get("total")->get("errors")->as_int(), 2);
  EXPECT_EQ(endpoint.stack().find<stack::FaultLayer>()->injected(), 2u);
  endpoint.stop();
}

TEST(EndpointStack, FaultSequenceIsReproducibleAcrossServers) {
  // Two endpoints with the same seed and rates serve the same ok/throttled
  // pattern to an identical request sequence — deterministic chaos.
  auto run_sequence = [](std::uint64_t seed) {
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    stack::StackConfig config;
    config.fault_seed = seed;
    config.fault.throttle_rate = 0.4;
    config.fault.error_rate = 0.0;
    EmulatorEndpoint endpoint(cloud, config);
    std::uint16_t port = endpoint.start();
    EXPECT_NE(port, 0);
    std::vector<std::string> codes;
    for (int i = 0; i < 40; ++i) {
      auto r = invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
      codes.push_back(r.ok ? "ok" : r.code);
    }
    endpoint.stop();
    return codes;
  };
  auto a = run_sequence(99);
  auto b = run_sequence(99);
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), "ok"), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), "RequestLimitExceeded"), 0);
  EXPECT_NE(run_sequence(100), a);
}

}  // namespace
}  // namespace lce::server
