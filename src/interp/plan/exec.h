// Entry point of the compiled-plan execution path. Semantics are defined
// by the tree-walking reference interpreter; the differential equivalence
// suite (tests/interp/plan_equivalence_test.cpp) holds the two paths to
// byte-identical responses, canonical dumps and alignment reports.
#pragma once

#include "common/api.h"
#include "interp/interpreter.h"
#include "interp/plan/plan.h"
#include "interp/store.h"

namespace lce::interp::plan {

/// Execute one request against `store` under `plan`. Takes/releases shard
/// locks per the transition's cached lock plan, rolls back on abort, and,
/// when `where` is non-null, fills the failure breadcrumb on failure (the
/// caller resets it, so it reads origin kNone on success).
ApiResponse run_plan(const ExecutionPlan& plan, const InterpreterOptions& opts,
                     ResourceStore& store, const ApiRequest& req, FailureSite* where);

}  // namespace lce::interp::plan
