// The automated-alignment loop (paper §4.3 and Fig. 2's feedback edge):
//
//   repeat:
//     symbolically generate high-coverage traces from the CURRENT spec
//     run them on emulator + cloud, collect divergences
//     shrink each divergence to a minimal reproducer
//     diagnose (failure-site breadcrumbs + class metadata) and repair
//   until no divergence or the round budget is exhausted.
//
// "This phase closes the loop, allowing the emulator to continuously and
// autonomously improve its fidelity over time."
#pragma once

#include <string>
#include <vector>

#include "align/differ.h"
#include "align/repair.h"
#include "align/trace_gen.h"
#include "interp/interpreter.h"

namespace lce::align {

struct AlignmentOptions {
  int max_rounds = 6;
  bool shrink = true;
  bool repair = true;  // false = detection-only (measurement mode)
  /// Parallelism of trace generation and of the differential pass:
  /// 0 = auto (hardware concurrency), 1 = serial, N = N worker threads
  /// (the pass replays over cloned backend pairs). The resulting report is
  /// byte-identical for every value (see parallel.h).
  int workers = 0;
  /// Wrap every differential worker's backend pair in a
  /// stack::MetricsLayer and store the aggregated per-API counters in
  /// RoundStats::metrics (excluded, like the timing counters, from the
  /// determinism contract).
  bool collect_metrics = false;
};

struct RoundStats {
  std::size_t traces = 0;
  std::size_t api_calls = 0;       // per backend
  std::size_t discrepancies = 0;
  std::size_t repairs = 0;
  // Performance counters (excluded from the determinism contract:
  // canonical_text() never includes them).
  double gen_wall_ms = 0;          // wall clock of trace generation
  double diff_wall_ms = 0;         // wall clock of the differential pass
  double repair_wall_ms = 0;       // wall clock of repair (0 when none ran)
  double traces_per_sec = 0;       // throughput of the differential pass
  int workers = 1;                 // parallelism the pass actually used
  // Aggregated per-API MetricsLayer counters for the pass, null unless
  // AlignmentOptions::collect_metrics (also outside the contract: counts
  // are deterministic but latency fields are wall-clock).
  Value metrics;
};

struct AlignmentReport {
  std::vector<RoundStats> rounds;
  std::vector<RepairAction> repairs;
  std::vector<Discrepancy> unrepaired;  // after the final round
  bool converged = false;
  std::vector<std::string> log;

  std::size_t total_discrepancies() const;
  std::size_t total_api_calls() const;
};

/// Canonical serialization of everything behavioural in a report — round
/// counters (minus timings), repairs, unrepaired discrepancies, the log —
/// used by the determinism tests and benches to assert that serial and
/// parallel runs produce bit-identical results.
std::string canonical_text(const AlignmentReport& report);

class AlignmentEngine {
 public:
  AlignmentEngine(interp::Interpreter& emulator, CloudBackend& cloud,
                  AlignmentOptions opts = {});

  AlignmentReport run();

 private:
  interp::Interpreter& emu_;
  CloudBackend& cloud_;
  AlignmentOptions opts_;
};

}  // namespace lce::align
