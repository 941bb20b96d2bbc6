// What a round of repairs can change, for the alignment loop's outcome
// reuse (engine.h). From round 2 on, a trace is replayed only when it is
// new, diverged last round, or can run a transition that last round's
// repairs edited; every other trace carries last round's clean outcome
// forward.
//
// A trace's footprint is the set of transitions its replay can run: for
// each call, the transition SpecSet::find_api dispatches it to, closed over
// `call(_, T, ...)` statements at any depth (if arms included) by adding
// every machine's transition named T. The callee is resolved on the target
// resource's type at run time, so the name match over-approximates it.
//
// Why an untouched footprint means an unchanged replay: after reset(),
// every resource and attribute a replay reads was produced by transitions
// in its footprint, and a response depends only on the executing
// transition, its machine's declarations and that state. A repair edits the
// transition its RepairAction names; an action with an empty transition
// (add-state-var, drop-state-var, patch-initial) edits its machine's
// declarations, which every transition of that machine reads. Repairs add
// no transition and no call, so when no transition in the footprint was
// edited, the footprint before the edits was the same one. `_AdvanceClock`
// fires timer transitions that no call names, so any edit touches a trace
// that holds one. The cloud is assumed deterministic per trace from a reset
// state, as the parallel executor already assumes.
#pragma once

#include <span>
#include <string>
#include <unordered_set>

#include "align/repair.h"
#include "align/trace_gen.h"

namespace lce::align {

/// The APIs of a spec whose footprint holds a transition that a set of
/// repairs edited: one dirty bit per API, computed once per round.
class EditFootprint {
 public:
  /// `spec` is the spec after the edits.
  EditFootprint(const spec::SpecSet& spec, std::span<const RepairAction> edits);

  /// True when some call of `trace` can run an edited transition, so its
  /// replay may differ from one before the edits.
  bool touches(const Trace& trace) const;

 private:
  std::unordered_set<std::string> dirty_apis_;
  bool any_edit_ = false;
};

/// An injective encoding of what a clean outcome depends on: the trace's
/// calls, its probe call and its class kind. Strings are length-prefixed
/// and values tagged with their kind, so two traces share a key only when
/// those three are equal.
std::string reuse_key(const GenTrace& g);

}  // namespace lce::align
