#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "stats.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanLog::open(std::uint32_t name, std::uint64_t op) {
  std::int32_t parent = open_.empty() ? -1 : open_.back();
  std::int32_t index = add(name, now_ns(), 0, parent, op);
  open_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int32_t SpanLog::add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
                          std::int32_t parent, std::uint64_t op) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> SpanLog::self_times() const {
  // Children of each span, as intervals clipped to the parent, merged so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    std::int64_t a = std::max(s.start_ns, p.start_ns);
    std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (!have || a > cur_b) {
        if (have) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        have = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (have) covered += cur_b - cur_a;
    self[i] = (spans_[i].end_ns - spans_[i].start_ns) - covered;
  }
  return self;
}

std::vector<SpanStats> SpanLog::aggregate() const {
  std::vector<std::int64_t> self = self_times();
  std::vector<std::vector<double>> by_self(names_.size()), by_total(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_self[spans_[i].name].push_back(static_cast<double>(self[i]));
    by_total[spans_[i].name].push_back(
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
  }
  std::vector<SpanStats> out;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (by_self[n].empty()) continue;
    SpanStats st;
    st.name = names_[n];
    st.count = by_self[n].size();
    for (double v : by_self[n]) st.total_self_ns += v;
    st.median_self_ns = median_of(by_self[n]);
    st.median_ns = median_of(by_total[n]);
    out.push_back(std::move(st));
  }
  return out;
}

bool SpanLog::write_json(const std::string& path, std::size_t limit) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::vector<std::int64_t> self = self_times();
  std::size_t n = limit == 0 ? spans_.size() : std::min(limit, spans_.size());
  out << "{\"spans_total\":" << spans_.size() << ",\"spans\":[";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << names_[s.name] << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"self_ns\":" << self[i] << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
