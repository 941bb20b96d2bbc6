#include "bench/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/strings.h"
#include "server/http.h"
#include "server/service.h"

namespace lce::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Workload mix in percent; the remaining 70% are describes.
constexpr int kCreatePct = 10;
constexpr int kMutatePct = 20;

/// Unique-enough CIDR for the n-th created vpc: 65536 distinct /24 blocks,
/// wrapping after that (duplicates are legal for top-level vpcs).
std::string cidr_for(std::uint64_t n) {
  return strf("10.", (n >> 8) & 0xff, ".", n & 0xff, ".0/24");
}

struct WorkerResult {
  std::vector<double> latencies_us;
  std::size_t ops = 0;
  std::size_t errors = 0;
};

}  // namespace

double percentile(std::vector<double>& sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  double rank = (p / 100.0) * static_cast<double>(sample.size());
  std::size_t idx = rank <= 1 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  if (idx >= sample.size()) idx = sample.size() - 1;
  return sample[idx];
}

Value LoadStats::to_value() const {
  Value::Map m;
  m["ops"] = Value(static_cast<std::int64_t>(ops));
  m["errors"] = Value(static_cast<std::int64_t>(errors));
  m["wall_ms"] = Value(static_cast<std::int64_t>(wall_ms));
  m["throughput_ops_s"] = Value(static_cast<std::int64_t>(throughput_ops_s));
  m["p50_us"] = Value(static_cast<std::int64_t>(p50_us));
  m["p90_us"] = Value(static_cast<std::int64_t>(p90_us));
  m["p99_us"] = Value(static_cast<std::int64_t>(p99_us));
  m["max_us"] = Value(static_cast<std::int64_t>(max_us));
  return Value(std::move(m));
}

LoadStats run_load(CloudBackend& backend, const LoadOptions& opts) {
  backend.reset();

  // Prepopulate serially so every worker starts with live targets.
  std::vector<Value> seeded_ids;
  seeded_ids.reserve(opts.prepopulate);
  for (std::size_t i = 0; i < opts.prepopulate; ++i) {
    ApiResponse r =
        backend.invoke({"CreateVpc", {{"cidr_block", Value(cidr_for(i))}}, ""});
    if (r.ok && r.data.get("id") != nullptr) seeded_ids.push_back(*r.data.get("id"));
  }

  int workers = std::max(1, opts.concurrency);
  std::vector<WorkerResult> results(static_cast<std::size_t>(workers));
  // Creates draw globally unique CIDR indices; ops are claimed from one
  // global ticket so open-loop scheduling stays a single arrival stream.
  std::atomic<std::uint64_t> cidr_counter{opts.prepopulate};
  std::atomic<std::size_t> next_op{0};

  auto t0 = Clock::now();
  auto worker = [&](int w) {
    WorkerResult& out = results[static_cast<std::size_t>(w)];
    Rng rng(opts.seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(w + 1)));
    std::vector<Value> own_ids;  // resources this worker created
    // HTTP mode: one client per worker. With keep-alive that is one TCP
    // connection for the worker's whole op stream; without it the client
    // is told to close after every response, so each op pays a handshake.
    std::unique_ptr<server::HttpClient> client;
    if (opts.http_port != 0) {
      client = std::make_unique<server::HttpClient>(opts.http_port);
      // Dial before claiming any op: connection setup is not part of the
      // measured workload, and every worker holds its own live connection
      // even if a sibling drains the shared op ticket first (the serve
      // path is fast enough on one core for that to actually happen).
      if (opts.http_keep_alive) client->preconnect();
    }
    auto invoke = [&](const ApiRequest& req) -> ApiResponse {
      if (client == nullptr) return backend.invoke(req);
      return server::invoke_over_client(*client, req.api, req.args,
                                        opts.http_keep_alive);
    };
    auto pick_target = [&]() -> const Value* {
      std::uint64_t n = seeded_ids.size() + own_ids.size();
      if (n == 0) return nullptr;
      std::uint64_t k = rng.uniform(n);
      return k < seeded_ids.size() ? &seeded_ids[k]
                                   : &own_ids[k - seeded_ids.size()];
    };
    auto make_req = [&](std::size_t k) -> ApiRequest {
      int roll = static_cast<int>(rng.uniform(100));
      const Value* target = nullptr;
      if (roll >= kCreatePct) target = pick_target();
      if (roll < kCreatePct || target == nullptr) {
        std::uint64_t n = cidr_counter.fetch_add(1, std::memory_order_relaxed);
        return {"CreateVpc", {{"cidr_block", Value(cidr_for(n))}}, ""};
      }
      if (roll < kCreatePct + kMutatePct) {
        return {"ModifyVpcDescription",
                {{"id", *target}, {"value", Value(strf("w", w, "-op", k))}},
                ""};
      }
      return {"DescribeVpc", {{"id", *target}}, ""};
    };
    for (;;) {
      std::size_t k = next_op.fetch_add(1, std::memory_order_relaxed);
      if (k >= opts.total_ops) break;
      Clock::time_point measured_from;
      if (opts.arrival_rate > 0) {
        // Open loop: op k is scheduled at t0 + k/rate; latency runs from
        // the scheduled arrival, so time spent queued behind a slow
        // backend counts against the backend.
        auto offset = std::chrono::duration<double>(
            static_cast<double>(k) / opts.arrival_rate);
        measured_from =
            t0 + std::chrono::duration_cast<Clock::duration>(offset);
        std::this_thread::sleep_until(measured_from);
      } else {
        measured_from = Clock::now();
      }

      ApiRequest req = make_req(k);
      ApiResponse resp = invoke(req);
      auto now = Clock::now();
      if (resp.ok) {
        if (req.api == "CreateVpc" && resp.data.get("id") != nullptr) {
          own_ids.push_back(*resp.data.get("id"));
        }
      } else {
        ++out.errors;
      }
      ++out.ops;
      out.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(now - measured_from).count());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();
  double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  LoadStats stats;
  std::vector<double> all;
  for (const auto& r : results) {
    stats.ops += r.ops;
    stats.errors += r.errors;
    all.insert(all.end(), r.latencies_us.begin(), r.latencies_us.end());
  }
  stats.wall_ms = wall_ms;
  stats.throughput_ops_s =
      wall_ms > 0 ? static_cast<double>(stats.ops) * 1000.0 / wall_ms : 0;
  stats.p50_us = percentile(all, 50);
  stats.p90_us = percentile(all, 90);
  stats.p99_us = percentile(all, 99);
  stats.max_us = all.empty() ? 0 : *std::max_element(all.begin(), all.end());
  return stats;
}

}  // namespace lce::bench
