// Timer reconciliation shared by both execution paths. A spec's `after`
// clauses declare *desired* timers as a function of state-variable values;
// the executors call reconcile() at commit time for every resource a
// successful transition created or wrote, and the helper arms/cancels
// through the store's TimerService so the armed set always matches the
// committed attribute values. Aborted transitions reconcile nothing — the
// undo journal restores the attributes and the timer set was never
// touched, so the two stay consistent.
#pragma once

#include <string_view>

#include "interp/store.h"
#include "spec/ast.h"

namespace lce::interp::timers {

/// Built-in pseudo-API advancing the virtual clock ({"ticks": N}); not a
/// spec transition — Interpreter::invoke intercepts it before dispatch.
/// Because it is not a plan API, Interpreter::read_only_api is false for
/// it, so the persist stack journals every advance as an ordinary kCall
/// record and recovery and replay re-fire the exact same timer sequence.
inline constexpr std::string_view kAdvanceClockApi = "_AdvanceClock";

/// Bring the timers for `r` in line with its current attribute values:
/// per clause, arm at now+delay when the variable holds the trigger value
/// and no timer for that clause is armed; cancel when it moved off the
/// trigger; leave an already-armed timer counting down otherwise. Caller
/// holds the shard locks covering `r` (the service itself is a leaf lock).
void reconcile(ResourceStore& store, const spec::StateMachine& machine, const Resource& r);

}  // namespace lce::interp::timers
