// Order statistics for the benchmark's reports.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least p% of all samples at or below it, i.e. the sample at
/// 1-based rank ceil(p/100 * n), clamped to [1, n]. p <= 0 gives the
/// minimum, p >= 100 the maximum; an empty input gives 0.
double nearest_rank(const std::vector<double>& sorted, double p);

/// Sorts a copy and returns its nearest-rank median (p50).
double median_of(std::vector<double> values);

/// Arithmetic mean; 0 for an empty input.
double mean_of(const std::vector<double>& values);

/// Latency samples in nanoseconds, summarised in microseconds.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

/// Sorts `ns` in place and summarises it with nearest-rank percentiles.
LatencySummary summarise_ns(std::vector<std::uint32_t>& ns);

}  // namespace perfbench
