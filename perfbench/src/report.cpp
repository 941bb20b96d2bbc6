#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Report::note(const std::string& line) { lines_.push_back(line); }

void Report::fail(const std::string& why) { problems_.push_back(why); }

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.12g", metrics_[i].value);
    if (i) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::render() const {
  std::string out;
  for (const std::string& l : lines_) out += l + "\n";
  for (const Metric& m : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.6g", m.value);
    out += "  " + m.name + " = " + num + " " + m.unit + "\n";
  }
  for (const std::string& p : problems_) out += "INCORRECT: " + p + "\n";
  out += json() + "\n";
  return out;
}

}  // namespace perfbench
