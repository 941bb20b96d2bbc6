// In-memory span recorder for the traced run. Spans are recorded only
// around the benchmark's own calls into the repository's public functions;
// nothing inside the program is instrumented. A span's self time is its
// duration minus the part of its interval that its direct children cover.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

struct Span {
  std::uint32_t name = 0;  // index into SpanLog::names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
  std::uint64_t op = 0;      // operation the span belongs to
};

/// Per-name aggregate of self times.
struct SpanStats {
  std::string name;
  std::size_t count = 0;
  double total_self_ns = 0;
  double median_self_ns = 0;
  double median_ns = 0;  // median duration including children
};

class SpanLog {
 public:
  std::uint32_t intern(std::string_view name);

  /// Opens a span under the innermost open span (if any); returns its index.
  std::int32_t open(std::uint32_t name, std::uint64_t op);
  void close(std::int32_t index);
  /// Records a finished span with an explicit parent.
  std::int32_t add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t op);

  /// Pre-allocates room for `n` spans, so recording never reallocates.
  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::size_t size() const { return spans_.size(); }

  /// Self time of every span, index-aligned with spans().
  std::vector<std::int64_t> self_times() const;
  /// Aggregates for every name that has at least one span.
  std::vector<SpanStats> aggregate() const;

  /// Writes the spans as one JSON document, the first `limit` of them
  /// (0 = all). False on I/O failure.
  bool write_json(const std::string& path, std::size_t limit) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span over the innermost open span of `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint32_t name, std::uint64_t op)
      : log_(log), index_(log.open(name, op)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

}  // namespace perfbench
