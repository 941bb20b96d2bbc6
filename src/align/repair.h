// Diagnosis and repair (paper §4.3): "we feed the LLM with the delta to
// diagnose the error ... Eventually, based on the diagnoses, the LLM
// updates the emulator to align with the cloud behavior."
//
// Here the LLM's diagnosis step is a rule-based synthesizer that *learns
// from the oracle*: predicates are inferred from observed pass/fail
// outcomes across symbolic classes (enum-state sweeps), numeric bounds are
// re-learned by probing the cloud at candidate boundaries, and effect
// values are read back from the cloud's describe responses. Every fix is a
// grammar-level edit to the learned SpecSet — the repaired emulator stays
// an executable specification.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "align/differ.h"
#include "interp/interpreter.h"

namespace lce::align {

struct RepairAction {
  enum class Kind {
    kPatchErrorCode,    // assert kept, code relabelled to the cloud's
    kDropAssert,        // cloud permits what the spec forbade
    kAddStateCheck,     // inferred in_list(self.attr, ...) precondition
    kAddNullGuard,      // inferred is_null(self.attr) dependency guard
    kAddBoolCoupling,   // inferred (!param || self.attr) coupling
    kTightenBound,      // numeric bound re-learned by probing the cloud
    kTightenEnum,       // stale documented enum member removed
    kAddReclaimGuard,   // explicit children-reclaimed assert (code learned)
    kAddParentAttach,   // create() reattached to its containment parent
    kStripDescribeWrites,  // describe() made read-only again
    kPatchWriteLiteral, // write literal read back from the cloud
    kAddWriteEffect,    // missing modify effect synthesized
    kAddStateVar,       // state variable learned from the cloud's payload
    kDropStateVar,      // hallucinated state variable removed
    kPatchInitial,      // initial value read back from the cloud
  };
  Kind kind;
  std::string machine;
  std::string transition;  // "" for machine-level repairs
  std::string detail;

  std::string to_text() const;
};

std::string to_string(RepairAction::Kind k);

/// Aggregated evidence for enum-precondition inference: per state member,
/// the cloud's outcome for the probe transition ("" = success, else code).
struct StateEvidence {
  std::map<std::string, std::string> outcome_by_member;
};

/// One candidate inferred precondition: `machine`'s state attribute
/// `attr` may gate `transition`, judged by `evidence`.
struct StateCheck {
  std::string machine;
  std::string transition;
  std::string attr;
  StateEvidence evidence;
};

class Repairer {
 public:
  Repairer(interp::Interpreter& emulator, CloudBackend& cloud);

  /// Try to repair `d`; on success the emulator's spec has been updated
  /// and the action describes the edit.
  std::optional<RepairAction> repair(const Discrepancy& d);

  /// Inferred-state-check repairs driven by sweep evidence (engine calls
  /// this for CloudErrEmuOk discrepancies on state sweeps / happy paths).
  /// Every check with discriminating evidence gets its precondition on one
  /// spec clone, installed by a single replace_spec; the actions come back
  /// in check order. Applying them one by one would give the same spec.
  std::vector<RepairAction> repair_state_checks(const std::vector<StateCheck>& checks);

 private:
  /// Replay d's trace on the emulator and return the failure site of the
  /// diverging call.
  interp::FailureSite emu_failure_at(const Discrepancy& d);

  /// Replay d's trace on the cloud and return the probe's resolved request
  /// (with backend-local ids).
  ApiRequest cloud_request_at(const Discrepancy& d, std::vector<ApiResponse>* prior);

  std::optional<RepairAction> repair_code_mismatch(const Discrepancy& d);
  std::optional<RepairAction> repair_spurious_failure(const Discrepancy& d);
  std::optional<RepairAction> repair_missing_check(const Discrepancy& d);
  std::optional<RepairAction> repair_payload(const Discrepancy& d);

  interp::Interpreter& emu_;
  CloudBackend& cloud_;
};

}  // namespace lce::align
