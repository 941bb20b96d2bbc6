// Hierarchical timer wheel over a deterministic virtual clock (§4.3's
// delayed-transition machinery). The wheel owns virtual "now"; ticks are
// dimensionless — the emulator maps them onto API-visible delays and,
// optionally, wall time (serve --tick-ms). Four levels of 64 slots cover
// deltas up to 2^24 ticks with O(1) placement; anything farther sits in an
// overflow list that drains as the clock crosses 2^24-tick boundaries.
// Per-level occupancy bitmaps let an advance skip empty stretches in O(1)
// per occupied region instead of walking tick-by-tick, and an empty wheel
// advances in O(1) outright.
//
// Determinism contract: entries pop in strict (deadline, seq) order, so two
// wheels that schedule the same (deadline, seq) pairs observe the same
// fire sequence byte-for-byte. The wheel never blocks and knows nothing of
// wall clocks or threads; TimerService adds payloads and locking.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace lce::vtime {

class TimerWheel {
 public:
  struct Entry {
    std::uint64_t deadline = 0;  // virtual tick at which the entry is due
    std::uint64_t seq = 0;       // creation sequence; ties break low-first
  };

  /// Current virtual time. Starts at 0; only pop_due()/reset() move it.
  std::uint64_t now() const { return now_; }

  /// Number of scheduled (not yet popped) entries, including overflow.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Schedule `seq` to fire at `deadline`. Deadlines in the past clamp to
  /// `now` (the entry pops on the next advance).
  void schedule(std::uint64_t deadline, std::uint64_t seq);

  /// Advance toward `target`, stopping at the earliest due entry. Returns
  /// that entry with the clock resting at its deadline, or nullopt with the
  /// clock at `target` when nothing is due on (now, target]. Successive
  /// calls with the same target therefore drain all due entries in
  /// (deadline, seq) order.
  std::optional<Entry> pop_due(std::uint64_t target);

  /// Drop every entry and reset the clock to `now`.
  void reset(std::uint64_t now = 0);

 private:
  static constexpr int kLevels = 4;
  static constexpr int kBits = 6;                    // 64 slots per level
  static constexpr std::uint64_t kSlots = 1ull << kBits;
  static constexpr std::uint64_t kMask = kSlots - 1;
  // Level L holds entries whose delta-from-now fits in 64^(L+1) ticks.
  static constexpr std::uint64_t span(int level) {
    return 1ull << (kBits * (level + 1));
  }

  void place(Entry e);
  void cascade(int level, std::uint64_t slot);
  void drain_overflow();
  /// Earliest virtual time > now_ at which an entry may become due (a
  /// level-0 deadline or a cascade boundary for an occupied upper slot);
  /// UINT64_MAX when the wheel holds nothing beyond now_.
  std::uint64_t next_event_hint() const;

  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots_;
  std::array<std::uint64_t, kLevels> bitmap_{};  // bit s set <=> slot non-empty
  std::vector<Entry> overflow_;                  // delta >= 2^24 at placement
  std::uint64_t now_ = 0;
  std::size_t count_ = 0;
};

}  // namespace lce::vtime
