// The durable-state manager and its stack layer.
//
// PersistManager owns a data dir: it recovers state on open, appends
// committed transitions to the epoch's WAL, and rotates epochs via
// snapshots (on demand from POST /admin/snapshot or automatically every N
// records). JournalLayer is the stack seam (config.h order: below
// validate, above serialize) that routes write invokes through the manager.
//
// The snapshot gate: logged invokes hold `gate()` SHARED across
// inner().invoke() + the WAL append, and a snapshot holds it EXCLUSIVE
// across dump + rotation. That is the whole consistency argument — a
// snapshot can never observe a store mutation whose log record has not
// landed (which replay would then double-apply). Reads bypass the gate
// entirely; the store dump takes shared stripes, which coexists with
// concurrent read invokes.
//
// Lock order (must never be taken in reverse): gate -> store stripes ->
// (released) -> WAL batch mutex. The interpreter takes stripes while the
// caller holds the gate shared; the WAL mutex is only ever taken with no
// stripes held.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>

#include "persist/recovery.h"
#include "persist/wal.h"
#include "stack/layer.h"

namespace lce::interp {
class Interpreter;
}  // namespace lce::interp

namespace lce::persist {

struct PersistOptions {
  std::string data_dir;
  WalSync sync = WalSync::kNone;
  /// Take a snapshot (rotating the epoch) once the WAL holds this many
  /// records. 0 = only on demand.
  std::uint64_t snapshot_every = 0;
  /// Journal read APIs too: the calls the compiled plan locks read-shared
  /// (Interpreter::read_only_api). Off by default: reads don't change
  /// state, so logging them only buys replay-time response verification
  /// at the cost of WAL volume. `lce serve --record DIR` turns it on, so a
  /// recording holds every call. Everything else is always journaled,
  /// including unknown APIs and _AdvanceClock, which is not a plan API.
  bool log_reads = false;
};

/// Introspection for GET /admin/persist and the CLI.
struct PersistStatus {
  std::uint64_t epoch = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshots_taken = 0;
  bool failed = false;  // a WAL append hit a sticky I/O error
};

class PersistManager {
 public:
  /// Recover `interp` from opts.data_dir (creating it when missing) and
  /// open the active epoch's WAL for appending. Returns nullptr with
  /// *error set on unrecoverable state or I/O failure; *recovery (when
  /// non-null) receives the recovery stats either way.
  static std::unique_ptr<PersistManager> open(interp::Interpreter& interp,
                                              PersistOptions opts,
                                              std::string* error,
                                              RecoveryResult* recovery = nullptr);

  /// True when `api` must be journaled under this configuration: every
  /// API the compiled plan does not classify read-only, plus reads when
  /// log_reads is set.
  bool should_log(const std::string& api) const;

  /// Append one invocation (caller holds gate() shared across the inner
  /// invoke AND this call). False after a sticky WAL failure — the caller
  /// must fail the request rather than ack an unlogged write.
  bool journal_call(const ApiRequest& req, const ApiResponse& resp);
  /// Append a reset marker (caller holds gate() exclusive).
  bool journal_reset();

  /// Dump the store and rotate to a fresh epoch (truncating the log).
  /// Quiesces writers via the exclusive gate; safe to call concurrently
  /// with serving. False with *error on failure (serving continues on the
  /// old epoch).
  bool take_snapshot(std::string* error);

  /// Called by JournalLayer after releasing the gate; takes an automatic
  /// snapshot when the cadence threshold is crossed.
  void maybe_auto_snapshot();

  PersistStatus status() const;
  const PersistOptions& options() const { return opts_; }
  std::shared_mutex& gate() { return gate_; }

 private:
  PersistManager(interp::Interpreter& interp, PersistOptions opts,
                 std::uint64_t epoch, std::unique_ptr<WalWriter> wal);

  interp::Interpreter& interp_;
  PersistOptions opts_;

  mutable std::shared_mutex gate_;
  std::uint64_t epoch_;            // guarded by gate_
  std::unique_ptr<WalWriter> wal_; // pointer swaps guarded by gate_ exclusive
  std::atomic<std::uint64_t> snapshots_taken_{0};
  std::atomic<bool> snapshotting_{false};  // collapses concurrent triggers
};

/// Stack layer wiring invokes into a PersistManager. Writes (and reads,
/// when log_reads) take the shared gate, invoke inward, and journal the
/// response before releasing it; a WAL failure converts the reply into an
/// InternalError so no un-logged mutation is ever acknowledged.
class JournalLayer final : public stack::BackendLayer {
 public:
  /// `manager` may be nullptr: a detached passthrough (what cloned chains
  /// get — a clone journaling into the original's WAL would corrupt it).
  explicit JournalLayer(PersistManager* manager) : manager_(manager) {}

  std::string layer_name() const override { return "journal"; }
  ApiResponse invoke(const ApiRequest& req) override;
  void reset() override;

 protected:
  std::unique_ptr<stack::BackendLayer> clone_detached() const override;

 private:
  PersistManager* manager_;
};

}  // namespace lce::persist
