// Load generation for the serve path (DESIGN.md "Serve throughput
// benchmark"): a mixed Create/Describe/Mutate workload driven against any
// CloudBackend at configurable concurrency, in two modes:
//
//   closed loop  every worker fires its next request the moment the
//                previous one returns — measures peak sustainable
//                throughput of the invoke path.
//   open loop    requests arrive on a fixed global schedule (arrival_rate
//                ops/sec, split across workers) and latency is measured
//                from the SCHEDULED arrival, so queueing delay behind a
//                saturated backend is charged to the backend instead of
//                being silently absorbed (no coordinated omission).
//
// The workload shape matches the LocalStack steady state and is fixed:
// 70% describes, 20% attribute writes, 10% creates. All randomness is
// SplitMix64-seeded per worker, so the op SEQUENCE is reproducible;
// timings of course are not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/api.h"
#include "common/value.h"

namespace lce::bench {

struct LoadOptions {
  int concurrency = 4;
  std::size_t total_ops = 8000;   // across all workers
  /// Open-loop arrival rate in ops/sec across all workers; 0 = closed loop.
  double arrival_rate = 0.0;
  std::uint64_t seed = 42;
  /// Resources created (serially) before the measured phase, so describes
  /// and mutates have targets from the first op on.
  std::size_t prepopulate = 64;
  /// When nonzero, the measured phase drives a live loopback endpoint on
  /// this port over real sockets (POST /invoke) instead of calling the
  /// backend in process. reset() and prepopulation still go through the
  /// in-process backend — it must be the same state the endpoint serves.
  std::uint16_t http_port = 0;
  /// HTTP mode only: one persistent keep-alive connection per worker vs a
  /// fresh Connection: close socket per request. The difference is the
  /// keep-alive sweep in BENCH_serve.json.
  bool http_keep_alive = true;
};

struct LoadStats {
  std::size_t ops = 0;
  std::size_t errors = 0;  // !ok responses (should be 0 for this workload)
  double wall_ms = 0;
  double throughput_ops_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double max_us = 0;

  /// JSON-ready map (BENCH_serve.json rows).
  Value to_value() const;
};

/// Nearest-rank percentile of `sample` (sorted in place); p in [0, 100].
/// Empty samples yield 0.
double percentile(std::vector<double>& sample, double p);

/// Drive `backend` with the configured workload and gather stats. The
/// backend is reset() first; prepopulation happens before the clock
/// starts. Workers are plain threads — the generator IS the concurrency
/// under test, so it must not serialize anything itself.
LoadStats run_load(CloudBackend& backend, const LoadOptions& opts);

}  // namespace lce::bench
