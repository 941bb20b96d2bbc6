// The benchmark's result: named metrics with units, the correctness
// verdict, and the human-readable lines printed before the final JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// Sets (or replaces) a metric.
  void set(const std::string& name, double value, const std::string& unit);
  /// The metric's value, 0 when it was never set.
  double value(const std::string& name) const;

  /// A line for the human-readable part of the output.
  void note(const std::string& line);
  /// Marks the run incorrect, with the reason printed.
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return problems_.empty() && failed == 0 && attempted > 0; }

  /// Human-readable lines, then the result JSON as the last line.
  std::string render() const;
  /// The result JSON object (one line).
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::vector<std::string> problems_;
};

}  // namespace perfbench
