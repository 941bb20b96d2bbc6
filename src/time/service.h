// TimerService: the store-facing face of the virtual-time subsystem. It
// pairs the deterministic TimerWheel with payloads (which transition to
// fire on which resource), a per-resource index for cancel-on-destroy, and
// a leaf mutex so both executors can reconcile timers at commit time.
//
// Cancellation is lazy: the wheel cannot remove an entry cheaply, so
// cancelled seqs simply vanish from `live_` and pop_due() skips the stale
// wheel entries when they surface. Lock order: store stripe locks first,
// then this mutex (never the reverse; the service calls nothing back).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "time/wheel.h"

namespace lce::vtime {

/// One armed delayed transition. `clause_key` identifies the spec clause
/// that armed it ("<state-var>#<clause-index>") so reconciliation can tell
/// "already armed" from "needs arming" per clause.
struct TimerInfo {
  std::uint64_t seq = 0;       // creation order; the deterministic tiebreak
  std::uint64_t deadline = 0;  // virtual tick at which the timer fires
  std::string resource_id;
  std::string transition;  // parameter-free transition invoked on fire
  std::string clause_key;
};

class TimerService {
 public:
  TimerService() = default;
  TimerService(const TimerService& other);
  TimerService& operator=(const TimerService& other);

  /// Current virtual time.
  std::uint64_t now() const;

  /// Number of armed (live) timers.
  std::size_t armed_count() const;

  /// Next seq the service will mint (persisted so recovery keeps the
  /// deterministic tiebreak sequence).
  std::uint64_t next_seq() const;

  /// Reconcile one clause against its desired state: arm at now+delay when
  /// `want` and the clause is unarmed; cancel when `!want` and it is armed;
  /// leave an already-armed timer running otherwise (arming is edge-
  /// triggered, so a variable that stays on its trigger value does not
  /// reset the countdown).
  void ensure(const std::string& resource_id, const std::string& clause_key,
              const std::string& transition, std::int64_t delay, bool want);

  /// Cancel every timer armed on `resource_id` (resource destroyed).
  void cancel_resource(const std::string& resource_id);

  /// Advance toward `target` and return the next due timer (clock rests at
  /// its deadline), or nullopt with the clock at `target`. Fired timers are
  /// disarmed; the caller re-arms via ensure() if the clause still wants
  /// one (periodic behaviour).
  std::optional<TimerInfo> pop_due(std::uint64_t target);

  /// Drop all timers and reset the clock to 0 (store reset).
  void clear();

  /// Live timers in seq order — the canonical serialization for snapshots
  /// and byte-identical store dumps.
  std::vector<TimerInfo> snapshot() const;

  /// Rebuild from a snapshot (recovery). Replaces all state; `timers`
  /// need not be sorted.
  void restore(std::uint64_t now, std::uint64_t next_seq, std::vector<TimerInfo> timers);

 private:
  void index_erase(const TimerInfo& ti);

  mutable std::mutex mu_;
  TimerWheel wheel_;
  std::uint64_t next_seq_ = 1;
  // seq -> payload; iteration order == seq order, which snapshot() relies on.
  std::map<std::uint64_t, TimerInfo> live_;
  // resource id -> clause_key -> seq, for ensure() lookups and cancels.
  std::map<std::string, std::map<std::string, std::uint64_t>> by_resource_;
};

}  // namespace lce::vtime
