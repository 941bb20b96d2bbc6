// Crash recovery and deterministic replay.
//
// Recovery (serve boot with --data-dir): pick the highest epoch whose
// snapshot validates, restore the store from it, then re-apply the valid
// prefix of the SAME epoch's WAL — torn or checksum-failing tail records
// are discarded, so a kill -9 at any byte offset recovers to a consistent
// prefix. Re-application goes through the interpreter's normal invoke
// path (not raw state patching): the log holds the normalized calls, and
// minted-id pinning reproduces the exact ids each call created even when
// concurrent commits landed in the log out of mint order.
//
// Replay (lce replay): the verification twin. Run the same computation on
// TWO fresh interpreters and assert their canonical store dumps are
// byte-identical, and that each re-invoked call reproduced its logged
// response (ok bit, code, and data; messages are explicitly out of scope,
// matching the alignment contract). A recorded session (`lce serve
// --record DIR`) is such a data dir, and an exported script (`lce trace
// export`) is a record file, so both replay through the identical
// machinery.
//
// Determinism caveat: WAL append order is commit order only for
// non-overlapping or serial workloads. Two racing conflicting writes may
// commit to the store in the opposite order of their log records; minted-
// id pinning keeps ids stable regardless, but response-level equality on
// replay is guaranteed only for the serial/disjoint case — which is what
// the acceptance property needs: recovery(state) == replay(prefix), both
// computed sequentially from the same surviving log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/api.h"
#include "persist/format.h"

namespace lce::interp {
class Interpreter;
}  // namespace lce::interp

namespace lce::persist {

/// Outcome of re-applying a record sequence to an interpreter.
struct ApplyResult {
  std::uint64_t applied = 0;     // records executed (calls + resets)
  std::uint64_t mismatches = 0;  // calls whose response diverged from the log
  std::string first_mismatch;    // human-readable description of the first
};

/// Serially re-apply `records` to `interp` from its current state:
/// resolve "$k.field" placeholders against prior replies (exported traces
/// use them; WAL records are concrete and pass through unchanged), pin
/// minted-id counters, invoke, and compare against the logged response
/// when one is present.
ApplyResult apply_records(const std::vector<LogRecord>& records,
                          interp::Interpreter* interp);

struct RecoveryResult {
  bool ok = false;
  std::string error;             // when !ok
  std::uint64_t epoch = 1;       // epoch whose artifacts were used
  bool snapshot_loaded = false;  // a valid snapshot file was restored
  std::uint64_t wal_records = 0; // records re-applied from the WAL prefix
  bool torn_tail = false;        // the WAL had a discarded tail
  std::uint64_t mismatches = 0;  // replayed calls diverging from the log
  std::string first_mismatch;
};

/// Rebuild `interp`'s state from `dir` (resets it first). A missing or
/// empty dir recovers to the fresh state at epoch 1. Serial — runs before
/// the endpoint starts serving.
RecoveryResult recover_into(const std::string& dir, interp::Interpreter* interp);

struct ReplayReport {
  bool ok = false;         // recovery succeeded and the dumps matched
  std::string error;
  RecoveryResult recovery; // first run's stats
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  bool dumps_identical = false;
  std::string canonical_dump;  // serialize_store of the replayed state
};

/// Verify `dir` end to end: recover into both interpreters independently
/// and require byte-identical canonical dumps plus zero response
/// mismatches. The interpreters must be fresh twins (same spec/options).
ReplayReport replay_dir(const std::string& dir, interp::Interpreter* a,
                        interp::Interpreter* b);

/// Replay a standalone record file (.lcw — a trace export or a copied
/// WAL) against a fresh interpreter from reset.
ReplayReport replay_file(const std::string& path, interp::Interpreter* interp);

/// Trace -> records (`lce trace export`). Requests only; has_response
/// stays false so replay skips comparison.
std::vector<LogRecord> records_from_trace(const Trace& trace);

/// Records -> a trace that replays from a reset backend (`lce trace
/// import`): the calls after the last reset record, with every argument
/// value (searched through lists and maps) and target that equals an id
/// minted by an earlier call k of the trace rewritten to "$k.id". The
/// minter is the first call whose minted_ids holds the id, so a logged
/// read that echoes an id never takes it over. Records without minted
/// ids (an exported script) pass through unchanged.
Trace trace_from_records(const std::vector<LogRecord>& records,
                         std::string label = "imported");

}  // namespace lce::persist
