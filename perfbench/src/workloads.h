// The three workloads (README.md records why each exists).
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Working directory for data dirs; removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its ledger spans (load-phase spans go
  /// next to it, see load_spans_path).
  std::string spans_out;
};

/// "x.json" -> "x-load.json": where the load phase's spans are written.
inline std::string load_spans_path(const std::string& spans_out) {
  std::string base = spans_out.size() > 5 && spans_out.ends_with(".json")
                         ? spans_out.substr(0, spans_out.size() - 5)
                         : spans_out;
  return base + "-load.json";
}

/// agent-describe and iac-apply-destroy: closed-loop HTTP load against an
/// in-process EmulatorEndpoint in the shipped `lce serve` configuration.
void run_http(const RunOptions& opts, Report& report);

/// learn-align: docs with seeded defects -> noisy synthesis -> alignment
/// against the reference cloud -> Fig. 3 score, one complete run per op.
void run_learn_align(const RunOptions& opts, Report& report);

/// Shared thread budget check: load threads + io threads + align workers
/// must fit the CPUs this process may use.
void check_thread_budget(int load_threads, int io_threads, int align_workers,
                         Report& report);

}  // namespace perfbench
