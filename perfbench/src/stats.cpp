#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank p-th percentile among n > 0 samples.
std::size_t rank_index(std::size_t n, double p) {
  // The epsilon keeps exact products such as 0.9 * 10 from rounding up a rank.
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return (r > n ? n : r) - 1;
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  return sorted.empty() ? 0 : sorted[rank_index(sorted.size(), p)];
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return nearest_rank(values, 50);
}

double mean_of(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

LatencySummary summarise_ns(std::vector<std::uint32_t>& ns) {
  std::sort(ns.begin(), ns.end());
  LatencySummary s;
  s.samples = ns.size();
  if (ns.empty()) return s;
  auto pick = [&](double p) { return static_cast<double>(ns[rank_index(ns.size(), p)]) / 1000.0; };
  s.p50_us = pick(50);
  s.p90_us = pick(90);
  s.p99_us = pick(99);
  s.p999_us = pick(99.9);
  return s;
}

}  // namespace perfbench
