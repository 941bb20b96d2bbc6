// Symbolic trace generation (paper §4.3): "performing symbolic passes over
// the SMs to divide the search space into symbolically equivalent classes,
// based on the check/assert conditions for each state transition".
//
// For every transition of every SM the generator emits:
//  * one HAPPY-PATH trace: dependency-ordered setup (create the containment
//    chain and every referenced resource with compatible attributes), the
//    probe call with arguments satisfying every assert, and a trailing
//    describe (so silent state divergence is observable);
//  * one SINGULAR-VIOLATION trace per assert: identical setup but with
//    exactly that assert's condition falsified (so a failure pinpoints one
//    check — "the SM ensures that there is a singular check violation in
//    the generated test traces");
//  * STATE-SWEEP variants for modify/action transitions: the probe re-run
//    from every reachable value of the machine's enum state variables
//    (drivers found by searching the spec for write-const transitions) —
//    this is what exposes *missing* checks such as the undocumented
//    StartInstance/IncorrectInstanceState behaviour.
//
// Classes whose constraints the solver cannot concretize are skipped and
// reported (the paper's §6 completeness caveat).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/api.h"
#include "spec/ast.h"

namespace lce::align {

enum class ClassKind {
  kHappyPath,
  kAssertViolation,
  kStateSweep,      // enum state var driven to a non-initial member
  kRefAttrSweep,    // ref state var driven non-null before the probe
  kBoolCoupling,    // bool param forced true after driving a bool attr false
  kBoundaryProbe,   // numeric arg at the spec's documented upper bound
  kMemberProbe,     // each documented enum member exercised individually
  kTimerFire,       // advance the virtual clock to a timer clause's deadline
  kTimerInterleave, // API call moves the var off its trigger mid-countdown
};

std::string to_string(ClassKind k);

struct SymbolicClass {
  ClassKind kind = ClassKind::kHappyPath;
  std::string machine;
  std::string transition;
  int assert_index = -1;        // kAssertViolation: which assert is falsified
  std::string expected_code;    // the spec's own prediction ("" = success)
  std::string description;
  // Sweep metadata consumed by the repair engine's predicate inference.
  std::string sweep_attr;       // which attribute was driven
  std::string sweep_value;      // the value it was driven to
  std::string sweep_param;      // kBoolCoupling: the bool param forced true
  std::string bound_param;      // kBoundaryProbe: the probed parameter
  std::int64_t bound_value = 0; // kBoundaryProbe: the probed numeric value
  std::string member_param;     // kMemberProbe: the enum-domain parameter
  std::string member_value;     // kMemberProbe: the documented member probed
};

struct GenTrace {
  Trace trace;
  SymbolicClass cls;
  std::size_t probe_call = 0;  // index of the call exercising the class
};

struct GenStats {
  std::size_t classes_total = 0;
  std::size_t classes_concretized = 0;
  std::vector<std::string> skipped;  // unconcretizable classes, with reason
};

class SpecIndex;

class TraceGenerator {
 public:
  /// Indexes `spec` once (machines by name, and which transitions call
  /// into a machine to write an attribute). The index is read-only after
  /// construction, so generation workers share it without locks. `spec`
  /// must outlive the generator and stay unmodified while it exists.
  explicit TraceGenerator(const spec::SpecSet& spec);
  ~TraceGenerator();

  /// Traces for one transition.
  std::vector<GenTrace> generate_for(const std::string& machine,
                                     const std::string& transition);

  /// Traces for every transition in the spec, in spec order. workers:
  /// 0 = auto (hardware concurrency), 1 = serial, N = N threads, each
  /// transition generated independently; the traces and the merged stats
  /// are identical for every value.
  std::vector<GenTrace> generate_all(int workers = 1);

  const GenStats& stats() const { return stats_; }

 private:
  std::vector<GenTrace> generate(const std::string& machine,
                                 const std::string& transition, GenStats& stats) const;

  const spec::SpecSet& spec_;
  std::unique_ptr<const SpecIndex> index_;
  GenStats stats_;
};

}  // namespace lce::align
