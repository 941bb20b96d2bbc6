// Parallel differential execution for the alignment loop (paper §4.3).
//
// The differential pass — replay every symbolic trace on the emulator AND
// the reference cloud, record divergences and sweep evidence — is
// embarrassingly parallel *except* that backends are stateful: each replay
// resets and mutates the backend's resource store. Rather than lock one
// backend pair, the executor deep-clones the pair per worker
// (CloudBackend::clone()) and shards the traces to replay (the whole corpus,
// or the subset a later alignment round replays) across workers in a
// stride pattern. Results land in per-trace slots indexed by the corpus
// order, so the merged output is byte-identical to a serial run for ANY
// worker count — the determinism contract tests/align/parallel_executor_test
// enforces.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "align/differ.h"
#include "align/trace_gen.h"
#include "common/api.h"

namespace lce::align {

/// Everything the engine needs from one trace's differential replay:
/// the divergence (if any) plus the cloud's probe outcome, which feeds the
/// enum-precondition evidence maps ("" = probe succeeded, else error code).
/// The divergence sits behind a pointer because most traces have none:
/// an outcome is 48 bytes, not the 656 of an inline Discrepancy.
struct TraceOutcome {
  std::unique_ptr<Discrepancy> discrepancy;
  bool have_probe_outcome = false;
  std::string probe_outcome;
};

class ParallelExecutor {
 public:
  /// workers: 0 = auto (hardware concurrency), 1 = serial, N = N threads.
  /// collect_metrics: wrap every worker's backend pair in a
  /// stack::MetricsLayer and aggregate per-API counters across workers
  /// (see metrics()).
  ParallelExecutor(CloudBackend& cloud, CloudBackend& emulator, int workers = 0,
                   bool collect_metrics = false);

  /// Replay every trace on both backends; outcome i corresponds to
  /// traces[i]. Falls back to serial execution on the real backends when
  /// either backend cannot clone() or only one worker is requested.
  std::vector<TraceOutcome> execute(const std::vector<GenTrace>& traces);

  /// Replay traces[i] for each i in `indices` into out[i] (out holds one
  /// slot per trace); other slots are left as they are. Worker k replays
  /// indices[k], indices[k + w], ..., so every slot is the same for any
  /// worker count. execute(traces) is this over every index.
  void execute(const std::vector<GenTrace>& traces, const std::vector<std::size_t>& indices,
               std::vector<TraceOutcome>& out);

  /// The parallelism the last execute() actually used (1 after a serial
  /// fallback); 0 before the first execute().
  int effective_workers() const { return effective_; }

  /// Aggregated {"cloud": ..., "emulator": ...} MetricsLayer snapshots for
  /// the last execute(); null unless collect_metrics. Call/error counts
  /// are identical for every worker count (the per-API workload is fixed
  /// by the replayed subset); latency fields are wall-clock and are — like
  /// RoundStats timings — excluded from the determinism contract.
  const Value& metrics() const { return metrics_; }

 private:
  CloudBackend& cloud_;
  CloudBackend& emu_;
  int workers_;
  bool collect_metrics_;
  int effective_ = 0;
  Value metrics_;
};

}  // namespace lce::align
