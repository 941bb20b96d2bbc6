// The repository's end-to-end benchmark (see ../README.md):
//
//   lce_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--spans-out FILE]
//
// Prints human-readable lines, then one JSON result object as the last
// line of standard output. Exit status 0 means the run completed (its
// verdict is the JSON "correct" field); 2 means bad arguments.
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: lce_perfbench --workload agent-describe|iac-apply-destroy|learn-align\n"
               "                     --seed N --seconds S --trace 0|1\n"
               "                     [--work-dir DIR] [--spans-out FILE]\n";
  return 2;
}

bool parse_uint(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.work_dir = ".bench_build/perfbench-work";
  std::uint64_t seconds = 0, trace = 0;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    std::string val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      have_seed = parse_uint(val, &opts.seed);
    } else if (arg == "--seconds") {
      have_seconds = parse_uint(val, &seconds) && seconds >= 1 && seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = parse_uint(val, &trace) && trace <= 1;
    } else if (arg == "--work-dir") {
      opts.work_dir = val;
    } else if (arg == "--spans-out") {
      opts.spans_out = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) return usage();
  opts.seconds = static_cast<int>(seconds);
  opts.trace = trace == 1;

  perfbench::Report report;
  if (opts.workload == "agent-describe" || opts.workload == "iac-apply-destroy") {
    perfbench::run_http(opts, report);
  } else if (opts.workload == "learn-align") {
    perfbench::run_learn_align(opts, report);
  } else {
    return usage();
  }
  std::cout << report.render() << std::flush;
  return 0;
}
