// The one-time-engineered emulator framework of paper §4.2: an interpreter
// that executes SM specifications ("executable specifications") behind the
// uniform CloudBackend API. All emulation behaviour comes from the SpecSet;
// the interpreter adds only the grammar semantics plus the built-in
// hierarchy guards of §1 (create cannot mutate its parent; destroy requires
// all containment children reclaimed).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/api.h"
#include "interp/store.h"
#include "spec/ast.h"

namespace lce::interp {

namespace plan {
class ExecutionPlan;
}

/// Hook for enriching error messages (paper §4.3: messages are for
/// developer consumption and the emulator may "decode" failures into
/// richer text than the cloud). Receives (machine, transition, error code,
/// base message) and returns the final message.
using MessageDecoder = std::function<std::string(
    const std::string&, const std::string&, const std::string&, const std::string&)>;

struct InterpreterOptions {
  /// Enforce the built-in hierarchy guards even when the spec omits the
  /// corresponding asserts (defence in depth per §1).
  bool hierarchy_guards = true;
  /// Maximum call() nesting before aborting with InternalError.
  int max_call_depth = 16;
  /// Validate argument presence/types against transition signatures.
  bool validate_params = true;
  /// Compile the spec into an immutable ExecutionPlan (src/interp/plan)
  /// at construction and after every replace_spec, and serve invokes
  /// through it: interned-symbol dispatch, cached lock plans, slot-
  /// resolved state and flat expression programs. Off = the tree-walking
  /// reference path; both produce byte-identical responses, dumps and
  /// alignment reports (enforced by the differential equivalence suite).
  bool use_plan = true;
  /// Optional message enrichment.
  MessageDecoder decoder;
  /// Backend display name.
  std::string name = "learned-emulator";
};

/// Where inside the spec a failing invocation aborted — the diagnosis
/// breadcrumb the alignment loop uses to localize errors "to a specific SM
/// implementation, a specific interaction" (paper §4.3).
struct FailureSite {
  std::string machine;
  std::string transition;
  std::string error_code;
  std::string assert_text;  // predicate text when an assert fired; "" else
  enum class Origin {
    kNone,         // last invoke succeeded
    kDispatch,     // unknown API / missing target / param validation
    kAssert,       // a spec assert fired
    kWriteCheck,   // a write violated the state variable's type
    kFramework,    // built-in hierarchy guard or internal error
  } origin = Origin::kNone;
};

/// The interpreter is a concurrent backend: every invoke() classifies its
/// transition into a lock plan over the store's shard stripes (read-shared
/// for read-only transitions, exclusive on the statically-known touched
/// shards for local writes, exclusive-all for dynamic footprints), and
/// transactional rollback uses an undo journal applied under the held
/// locks instead of a whole-store copy. thread_safe() therefore reports
/// true and stack::build_stack skips the SerializeLayer gate by default.
/// replace_spec() is the one exception: it must not race in-flight
/// invokes (the alignment loop runs it from a quiescent, serial phase).
class Interpreter final : public CloudBackend {
 public:
  explicit Interpreter(spec::SpecSet spec, InterpreterOptions opts = {});

  std::string name() const override { return opts_.name; }
  ApiResponse invoke(const ApiRequest& req) override;
  void reset() override;
  bool supports(const std::string& api) const override;
  Value snapshot() const override;
  bool thread_safe() const override { return true; }
  /// Independent deep copy (spec, options, resource state, id counters).
  std::unique_ptr<CloudBackend> clone() const override;

  /// True when `api` resolves to a transition whose lock plan is
  /// read-shared — it provably mutates nothing, so the persist journal
  /// may skip it (PersistManager::should_log). Sourced from the compiled
  /// plan's cached lock plans when use_plan, from the same classifier run
  /// on demand otherwise; both agree by construction. APIs that are not
  /// plan transitions are not read-only: unknown APIs (journaled so replay
  /// reproduces their InvalidAction reply) and _AdvanceClock (journaled
  /// so recovery and replay re-fire the same timers).
  bool read_only_api(const std::string& api) const;

  const spec::SpecSet& spec() const { return spec_; }
  /// Swap in an updated spec (the alignment loop's repair step), keeping
  /// current resources when possible.
  void replace_spec(spec::SpecSet spec);

  ResourceStore& store() { return store_; }
  const ResourceStore& store() const { return store_; }

  /// Breadcrumb for the most recent invoke(); origin kNone when it
  /// succeeded. Under concurrent invokes "most recent" follows the
  /// internal commit order — diagnosis consumers (the alignment loop)
  /// call serially.
  FailureSite last_failure() const;

 private:
  /// Clone path: shares the already-built plan instead of recompiling.
  Interpreter(spec::SpecSet spec, InterpreterOptions opts,
              std::shared_ptr<const plan::ExecutionPlan> shared_plan);

  /// The `_AdvanceClock` built-in (see interp/timers.h): advances the
  /// virtual clock by args["ticks"] and fires every due timer through the
  /// normal invoke path, in deterministic (deadline, seq) order.
  ApiResponse advance_clock(const ApiRequest& req);

  /// Recompile the execution plan (when use_plan) and the spec's sorted
  /// api dispatch index. Called from construction and replace_spec; must
  /// not race in-flight invokes (see replace_spec).
  void rebuild_dispatch();

  spec::SpecSet spec_;
  InterpreterOptions opts_;
  // Immutable compiled form of spec_ (null when use_plan is off). Shared
  // by clones; swapped wholesale on replace_spec, so a plan's internals
  // never mutate once published.
  std::shared_ptr<const plan::ExecutionPlan> plan_;
  ResourceStore store_;
  FailureSite last_failure_;
  // unique_ptr keeps the Interpreter movable (guaranteed-elision callers
  // and by-value factories in tests stay valid).
  std::unique_ptr<std::mutex> failure_mu_ = std::make_unique<std::mutex>();
};

}  // namespace lce::interp
