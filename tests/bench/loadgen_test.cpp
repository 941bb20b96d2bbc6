// The load generator is itself part of the measurement contract: a wrong
// percentile or a serialized worker loop would fake the very speedups the
// serve bench gates on. These tests pin the statistics helpers and smoke
// the generator end to end against the learned emulator — both stack
// configurations, closed and open loop.
#include "bench/loadgen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench/serve_bench.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "server/json.h"
#include "server/service.h"
#include "stack/config.h"

namespace lce::bench {
namespace {

TEST(Percentile, NearestRankMatchesHandComputedValues) {
  std::vector<double> s{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(percentile(s, 50), 50);
  EXPECT_EQ(percentile(s, 90), 90);
  EXPECT_EQ(percentile(s, 99), 100);
  EXPECT_EQ(percentile(s, 100), 100);
  EXPECT_EQ(percentile(s, 0), 10);  // floor: first element
}

TEST(Percentile, SortsUnorderedInputAndHandlesEdgeCases) {
  std::vector<double> s{5, 1, 3};
  EXPECT_EQ(percentile(s, 50), 3);
  EXPECT_EQ(s, (std::vector<double>{1, 3, 5}));  // documented in-place sort

  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 99), 0);

  std::vector<double> one{7};
  EXPECT_EQ(percentile(one, 1), 7);
  EXPECT_EQ(percentile(one, 99), 7);
}

TEST(LoadStats, ToValueCarriesEveryReportedField) {
  LoadStats stats;
  stats.ops = 100;
  stats.errors = 2;
  stats.wall_ms = 12.5;
  stats.throughput_ops_s = 8000;
  stats.p50_us = 3;
  stats.p99_us = 40;
  Value v = stats.to_value();
  EXPECT_EQ(v.get("ops")->as_int(), 100);
  EXPECT_EQ(v.get("errors")->as_int(), 2);
  EXPECT_EQ(v.get("wall_ms")->as_int(), 12);
  EXPECT_EQ(v.get("throughput_ops_s")->as_int(), 8000);
  EXPECT_EQ(v.get("p50_us")->as_int(), 3);
  EXPECT_EQ(v.get("p99_us")->as_int(), 40);
}

class LoadGenTest : public ::testing::Test {
 protected:
  LoadGenTest()
      : emulator_(core::LearnedEmulator::from_docs(
            docs::render_corpus(docs::build_aws_catalog()))) {}

  stack::LayerStack make_stack() {
    stack::StackConfig cfg;
    cfg.metrics = false;
    return stack::build_stack(emulator_.backend(), cfg);
  }

  core::LearnedEmulator emulator_;
};

TEST_F(LoadGenTest, ClosedLoopRunsEveryOpWithoutErrors) {
  auto stack = make_stack();
  LoadOptions opts;
  opts.concurrency = 4;
  opts.total_ops = 400;
  opts.prepopulate = 8;
  LoadStats stats = run_load(stack, opts);
  EXPECT_EQ(stats.ops, 400u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.throughput_ops_s, 0);
  EXPECT_GT(stats.wall_ms, 0);
  EXPECT_LE(stats.p50_us, stats.p99_us);
  EXPECT_LE(stats.p99_us, stats.max_us);
}

TEST_F(LoadGenTest, SerializedPathRunsTheSameWorkloadCleanly) {
  // The serve bench's baseline: the whole-backend gate built by hand under
  // validate, since build_stack leaves it out over the thread-safe
  // interpreter.
  stack::LayerStack stack(emulator_.backend());
  stack.push(std::make_unique<stack::SerializeLayer>())
      .push(std::make_unique<stack::ValidateLayer>());
  EXPECT_EQ(stack.layer_names(), (std::vector<std::string>{"validate", "serialize"}));
  LoadOptions opts;
  opts.concurrency = 4;
  opts.total_ops = 300;
  opts.prepopulate = 8;
  LoadStats stats = run_load(stack, opts);
  EXPECT_EQ(stats.ops, 300u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(LoadGenTest, OpenLoopPacesArrivalsAcrossTheSchedule) {
  auto stack = make_stack();
  LoadOptions opts;
  opts.concurrency = 2;
  opts.total_ops = 200;
  opts.prepopulate = 8;
  opts.arrival_rate = 20000;  // 200 ops / 20k ops/s -> ~10 ms schedule
  LoadStats stats = run_load(stack, opts);
  EXPECT_EQ(stats.ops, 200u);
  EXPECT_EQ(stats.errors, 0u);
  // The run cannot finish faster than the arrival schedule allows.
  EXPECT_GE(stats.wall_ms, 8.0);
}

// ---------------------------------------------------------------------------
// HTTP mode: the measured phase drives a live epoll endpoint over real
// loopback sockets, keep-alive vs Connection: close — the data behind the
// keep-alive sweep in BENCH_serve.json.

class KeepAliveLoadgen : public ::testing::Test {
 protected:
  KeepAliveLoadgen()
      : emulator_(core::LearnedEmulator::from_docs(
            docs::render_corpus(docs::build_aws_catalog()))),
        endpoint_(emulator_.backend(), sharded_config()) {}

  static stack::StackConfig sharded_config() {
    stack::StackConfig cfg;
    cfg.metrics = false;
    return cfg;
  }

  LoadOptions http_opts(bool keep_alive) {
    LoadOptions opts;
    opts.concurrency = 3;
    opts.total_ops = 120;
    opts.prepopulate = 8;
    opts.http_port = port_;
    opts.http_keep_alive = keep_alive;
    return opts;
  }

  void SetUp() override {
    port_ = endpoint_.start();
    ASSERT_NE(port_, 0);
  }
  void TearDown() override { endpoint_.stop(); }

  core::LearnedEmulator emulator_;
  server::EmulatorEndpoint endpoint_;
  std::uint16_t port_ = 0;
};

TEST_F(KeepAliveLoadgen, KeepAliveWorkersReuseOneConnectionEach) {
  server::HttpServerStats before = endpoint_.server_stats();
  LoadStats stats = run_load(endpoint_.stack(), http_opts(true));
  server::HttpServerStats after = endpoint_.server_stats();
  EXPECT_EQ(stats.ops, 120u);
  EXPECT_EQ(stats.errors, 0u);
  // One persistent connection per worker (a stale-retry reconnect could
  // add one more, but nowhere near one per request).
  std::uint64_t opened = after.connections_accepted - before.connections_accepted;
  EXPECT_GE(opened, 3u);
  EXPECT_LE(opened, 6u);
  EXPECT_GE(after.keepalive_reuses - before.keepalive_reuses, 100u);
}

TEST_F(KeepAliveLoadgen, CloseModeOpensAConnectionPerRequest) {
  server::HttpServerStats before = endpoint_.server_stats();
  LoadStats stats = run_load(endpoint_.stack(), http_opts(false));
  server::HttpServerStats after = endpoint_.server_stats();
  EXPECT_EQ(stats.ops, 120u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(after.connections_accepted - before.connections_accepted, 120u);
  EXPECT_EQ(after.keepalive_reuses - before.keepalive_reuses, 0u);
}

TEST_F(KeepAliveLoadgen, OpenLoopOverHttpHoldsTheArrivalSchedule) {
  LoadOptions opts = http_opts(true);
  opts.total_ops = 100;
  opts.arrival_rate = 5000;  // 100 ops / 5k ops/s -> ~20 ms schedule
  LoadStats stats = run_load(endpoint_.stack(), opts);
  EXPECT_EQ(stats.ops, 100u);
  EXPECT_EQ(stats.errors, 0u);
  // Latency is measured from the scheduled arrival (no coordinated
  // omission), so the wall clock cannot beat the schedule.
  EXPECT_GE(stats.wall_ms, 15.0);
}

TEST(ServeBenchJson, ReportCarriesTheKeepAliveSweep) {
  std::string path = ::testing::TempDir() + "lce_bench_serve_test.json";
  ServeBenchOptions opts;
  opts.quick = true;
  opts.ops = 200;
  opts.concurrency = {2};
  opts.json_path = path;
  opts.enforce = false;  // tiny run: numbers are noise, shape is the test
  int rc = run_serve_bench(opts);
  EXPECT_EQ(rc, 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto report = server::parse_json(buf.str());
  ASSERT_TRUE(report.has_value());
  const Value::Map& top = report->as_map();
  ASSERT_TRUE(top.count("http_front_end"));
  ASSERT_TRUE(top.count("keepalive_speedup"));
  ASSERT_TRUE(top.count("io_threads"));
  // No operator-new hook in this test binary: the serve-alloc probe must
  // not run, so its keys stay absent rather than carrying junk.
  EXPECT_FALSE(top.count("serve_alloc_per_req_x10"));
  const auto& rows = top.at("http_front_end").as_list();
  ASSERT_GE(rows.size(), 3u);  // close, keepalive, open
  bool saw_close = false, saw_ka = false, saw_open = false;
  for (const Value& row : rows) {
    std::string_view config = row.get("config")->as_str();
    saw_close |= config == "http_close";
    saw_ka |= config == "http_keepalive";
    saw_open |= config == "http_keepalive_open";
    EXPECT_GT(row.get("throughput_ops_s")->as_int(), 0) << config;
    EXPECT_GE(row.get("connections")->as_int(), 1) << config;
    EXPECT_GT(row.get("p99_us")->as_int(), 0) << config;
  }
  EXPECT_TRUE(saw_close);
  EXPECT_TRUE(saw_ka);
  EXPECT_TRUE(saw_open);
  std::remove(path.c_str());
}

TEST_F(LoadGenTest, ResetBetweenRunsKeepsRunsIndependent) {
  auto stack = make_stack();
  LoadOptions opts;
  opts.concurrency = 2;
  opts.total_ops = 150;
  opts.prepopulate = 4;
  LoadStats a = run_load(stack, opts);
  LoadStats b = run_load(stack, opts);  // run_load resets the backend
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.errors, 0u);
  EXPECT_EQ(b.errors, 0u);
}

}  // namespace
}  // namespace lce::bench
