#include "align/repair.h"

#include <algorithm>
#include <functional>

#include "common/cidr.h"
#include "common/errors.h"
#include "common/strings.h"

namespace lce::align {

namespace {

using spec::BinaryOp;
using spec::ExprKind;
using spec::StateMachine;
using spec::StmtKind;
using spec::Transition;
using spec::TransitionKind;

spec::StmtPtr assert_stmt(spec::ExprPtr pred, std::string code) {
  auto s = std::make_unique<spec::Stmt>();
  s->kind = StmtKind::kAssert;
  s->expr = std::move(pred);
  s->error_code = std::move(code);
  return s;
}

/// Insert the precondition assert `stmt` after any leading exists-asserts
/// (reference validation fires first on the cloud too). A repair must
/// change the spec: when `t` already holds the same top-level assert (same
/// code, same predicate text) nothing is inserted and this returns false.
bool insert_precondition(Transition& t, spec::StmtPtr stmt) {
  const std::string text = stmt->expr->to_text();
  for (const auto& s : t.body) {
    if (s->kind == StmtKind::kAssert && s->error_code == stmt->error_code && s->expr &&
        s->expr->to_text() == text) {
      return false;
    }
  }
  std::size_t pos = 0;
  while (pos < t.body.size() && t.body[pos]->kind == StmtKind::kAssert &&
         t.body[pos]->error_code == errc::kResourceNotFound) {
    ++pos;
  }
  t.body.insert(t.body.begin() + static_cast<std::ptrdiff_t>(pos), std::move(stmt));
  return true;
}

/// The top-level assert that `site` says aborted `t`; nullptr when the
/// abort came from anything else, an assert nested in an `if` arm included.
spec::Stmt* failing_assert(Transition& t, const interp::FailureSite& site) {
  if (site.origin != interp::FailureSite::Origin::kAssert || site.stmt < 0 ||
      static_cast<std::size_t>(site.stmt) >= t.body.size()) {
    return nullptr;
  }
  spec::Stmt& s = *t.body[static_cast<std::size_t>(site.stmt)];
  return s.kind == StmtKind::kAssert && s.expr ? &s : nullptr;
}

spec::Type type_for_value(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kBool: return spec::Type::boolean();
    case ValueKind::kInt: return spec::Type::integer();
    case ValueKind::kRef: return spec::Type::ref();
    case ValueKind::kList: return spec::Type::list();
    default: return spec::Type::str();
  }
}

}  // namespace

std::string to_string(RepairAction::Kind k) {
  switch (k) {
    case RepairAction::Kind::kPatchErrorCode: return "patch-error-code";
    case RepairAction::Kind::kDropAssert: return "drop-assert";
    case RepairAction::Kind::kAddStateCheck: return "add-state-check";
    case RepairAction::Kind::kAddNullGuard: return "add-null-guard";
    case RepairAction::Kind::kAddBoolCoupling: return "add-bool-coupling";
    case RepairAction::Kind::kTightenBound: return "tighten-bound";
    case RepairAction::Kind::kTightenEnum: return "tighten-enum";
    case RepairAction::Kind::kAddReclaimGuard: return "add-reclaim-guard";
    case RepairAction::Kind::kAddParentAttach: return "add-parent-attach";
    case RepairAction::Kind::kStripDescribeWrites: return "strip-describe-writes";
    case RepairAction::Kind::kPatchWriteLiteral: return "patch-write-literal";
    case RepairAction::Kind::kAddWriteEffect: return "add-write-effect";
    case RepairAction::Kind::kAddStateVar: return "add-state-var";
    case RepairAction::Kind::kDropStateVar: return "drop-state-var";
    case RepairAction::Kind::kPatchInitial: return "patch-initial";
  }
  return "?";
}

std::string RepairAction::to_text() const {
  return strf("[", to_string(kind), "] ", machine,
              transition.empty() ? "" : strf("::", transition), ": ", detail);
}

Repairer::Repairer(interp::Interpreter& emulator, CloudBackend& cloud)
    : emu_(emulator), cloud_(cloud) {}

interp::FailureSite Repairer::emu_failure_at(const Discrepancy& d) {
  emu_.reset();
  std::vector<ApiResponse> prior;
  interp::FailureSite site;
  for (std::size_t i = 0; i <= d.call_index && i < d.trace.calls.size(); ++i) {
    prior.push_back(emu_.invoke(resolve_placeholders(d.trace.calls[i], prior), &site));
  }
  return site;
}

ApiRequest Repairer::cloud_request_at(const Discrepancy& d,
                                      std::vector<ApiResponse>* prior_out) {
  cloud_.reset();
  std::vector<ApiResponse> prior;
  ApiRequest resolved;
  for (std::size_t i = 0; i <= d.call_index && i < d.trace.calls.size(); ++i) {
    resolved = resolve_placeholders(d.trace.calls[i], prior);
    prior.push_back(cloud_.invoke(resolved));
  }
  if (prior_out != nullptr) *prior_out = std::move(prior);
  return resolved;
}

std::optional<RepairAction> Repairer::repair(const Discrepancy& d) {
  switch (d.kind) {
    case DivergenceKind::kErrorCodeMismatch: return repair_code_mismatch(d);
    case DivergenceKind::kCloudOkEmuErr: return repair_spurious_failure(d);
    case DivergenceKind::kCloudErrEmuOk: return repair_missing_check(d);
    case DivergenceKind::kPayloadMismatch: return repair_payload(d);
  }
  return std::nullopt;
}

std::optional<RepairAction> Repairer::repair_code_mismatch(const Discrepancy& d) {
  interp::FailureSite site = emu_failure_at(d);
  spec::SpecSet spec = emu_.spec().clone();
  StateMachine* m = spec.find_machine(site.machine);
  Transition* t = m != nullptr ? m->find_transition(site.transition) : nullptr;

  if (spec::Stmt* s = t != nullptr ? failing_assert(*t, site) : nullptr) {
    std::string old = s->error_code;
    s->error_code = d.cloud.code;
    emu_.replace_spec(std::move(spec));
    return RepairAction{RepairAction::Kind::kPatchErrorCode, site.machine, site.transition,
                        strf("'", old, "' -> '", d.cloud.code, "' (learned from cloud)")};
  }
  if (site.origin == interp::FailureSite::Origin::kFramework && t != nullptr &&
      t->kind == TransitionKind::kDestroy) {
    // The framework reclaim guard fired with DependencyViolation but the
    // cloud uses a different code: encode an explicit assert that fires
    // first with the learned code.
    auto pred = spec::make_binary(
        BinaryOp::kEq,
        spec::make_builtin("child_count", [] {
          std::vector<spec::ExprPtr> v;
          v.push_back(spec::make_literal(Value("")));
          return v;
        }()),
        spec::make_literal(Value(0)));
    if (!insert_precondition(*t, assert_stmt(std::move(pred), d.cloud.code))) {
      return std::nullopt;
    }
    emu_.replace_spec(std::move(spec));
    return RepairAction{RepairAction::Kind::kAddReclaimGuard, site.machine, site.transition,
                        strf("explicit reclaim guard with learned code '", d.cloud.code, "'")};
  }
  return std::nullopt;
}

std::optional<RepairAction> Repairer::repair_spurious_failure(const Discrepancy& d) {
  interp::FailureSite site = emu_failure_at(d);
  spec::SpecSet spec = emu_.spec().clone();
  StateMachine* m = spec.find_machine(site.machine);
  Transition* t = m != nullptr ? m->find_transition(site.transition) : nullptr;
  if (t == nullptr) return std::nullopt;

  if (site.origin == interp::FailureSite::Origin::kAssert) {
    const spec::Stmt* s = failing_assert(*t, site);
    if (s == nullptr) return std::nullopt;
    std::string text = s->expr->to_text();
    t->body.erase(t->body.begin() + site.stmt);
    emu_.replace_spec(std::move(spec));
    return RepairAction{RepairAction::Kind::kDropAssert, site.machine, site.transition,
                        strf("cloud permits it; dropped assert ", text)};
  }

  if (site.origin == interp::FailureSite::Origin::kWriteCheck) {
    const std::string& var = site.var;
    if (t->kind == TransitionKind::kDescribe) {
      // Describe must be read-only: strip its writes wholesale.
      spec::Body kept;
      for (auto& s : t->body) {
        if (s->kind != StmtKind::kWrite) kept.push_back(std::move(s));
      }
      t->body = std::move(kept);
      emu_.replace_spec(std::move(spec));
      return RepairAction{RepairAction::Kind::kStripDescribeWrites, site.machine,
                          site.transition, "describe() made read-only"};
    }
    // Learn the correct value from the cloud: run the trace there, then
    // describe the resource and read the attribute back.
    std::vector<ApiResponse> prior;
    ApiRequest probe = cloud_request_at(d, &prior);
    if (!prior.empty() && prior.back().ok) {
      const Transition* describe = nullptr;
      for (const auto& tt : m->transitions) {
        if (tt.kind == TransitionKind::kDescribe) describe = &tt;
      }
      std::string target =
          !probe.target.empty()           ? probe.target
          : probe.args.count("id") != 0   ? std::string(probe.args.at("id").as_str())
                                          : "";
      if (describe != nullptr && !target.empty()) {
        ApiResponse resp =
            cloud_.invoke(ApiRequest{describe->name, {{"id", Value::ref(target)}}, ""});
        const Value* learned = resp.ok ? resp.data.get(var) : nullptr;
        if (learned != nullptr) {
          for (auto& s : t->body) {
            if (s->kind == StmtKind::kWrite && s->var == var && s->expr &&
                s->expr->kind == ExprKind::kLiteral) {
              s->expr = spec::make_literal(*learned);
              emu_.replace_spec(std::move(spec));
              return RepairAction{RepairAction::Kind::kPatchWriteLiteral, site.machine,
                                  site.transition,
                                  strf("write(", var, ") literal learned as ",
                                       learned->to_text())};
            }
          }
        }
      }
    }
    return std::nullopt;
  }

  if (site.origin == interp::FailureSite::Origin::kFramework &&
      t->kind == TransitionKind::kCreate && !m->parent_type.empty()) {
    // The create lost its attach_parent (the framework guard rejected the
    // orphan). Reattach via the ref param typed to the parent.
    for (const auto& p : t->params) {
      if (p.type.kind == spec::TypeKind::kRef && p.type.ref_type == m->parent_type) {
        auto s = std::make_unique<spec::Stmt>();
        s->kind = StmtKind::kAttachParent;
        s->expr = spec::make_var(p.name);
        t->body.insert(t->body.begin(), std::move(s));
        emu_.replace_spec(std::move(spec));
        return RepairAction{RepairAction::Kind::kAddParentAttach, site.machine,
                            site.transition, strf("reattached via param '", p.name, "'")};
      }
    }
  }
  return std::nullopt;
}

std::optional<RepairAction> Repairer::repair_missing_check(const Discrepancy& d) {
  const std::string& code = d.cloud.code;
  spec::SpecSet spec = emu_.spec().clone();
  StateMachine* m = spec.find_machine(d.cls.machine);
  Transition* t = m != nullptr ? m->find_transition(d.cls.transition) : nullptr;
  if (t == nullptr) return std::nullopt;

  switch (d.cls.kind) {
    case ClassKind::kRefAttrSweep: {
      auto pred = spec::make_builtin("is_null", [&] {
        std::vector<spec::ExprPtr> v;
        v.push_back(spec::make_field(spec::make_self(), d.cls.sweep_attr));
        return v;
      }());
      if (!insert_precondition(*t, assert_stmt(std::move(pred), code))) return std::nullopt;
      emu_.replace_spec(std::move(spec));
      return RepairAction{RepairAction::Kind::kAddNullGuard, d.cls.machine, d.cls.transition,
                          strf("learned: fails with '", code, "' while '", d.cls.sweep_attr,
                               "' is attached")};
    }
    case ClassKind::kBoolCoupling: {
      auto pred = spec::make_binary(
          BinaryOp::kOr,
          spec::make_unary(spec::UnaryOp::kNot, spec::make_var(d.cls.sweep_param)),
          spec::make_field(spec::make_self(), d.cls.sweep_attr));
      if (!insert_precondition(*t, assert_stmt(std::move(pred), code))) return std::nullopt;
      emu_.replace_spec(std::move(spec));
      return RepairAction{
          RepairAction::Kind::kAddBoolCoupling, d.cls.machine, d.cls.transition,
          strf("learned: '", d.cls.sweep_param, "'=true requires '", d.cls.sweep_attr, "'")};
    }
    case ClassKind::kBoundaryProbe: {
      // Re-learn the true upper bound by probing the cloud downward from
      // the documented bound.
      std::int64_t doc_hi = d.cls.bound_value;
      std::int64_t true_hi = -1;
      for (std::int64_t v = doc_hi - 1; v >= doc_hi - 8 && v >= 0; --v) {
        Trace probe_trace = d.trace;
        ApiRequest& probe = probe_trace.calls[d.call_index];
        auto it = probe.args.find(d.cls.bound_param);
        if (it == probe.args.end()) break;
        if (it->second.is_int()) {
          it->second = Value(v);
        } else {
          auto cur = Cidr::parse(it->second.as_str());
          if (!cur) break;
          it->second = Value(Cidr(cur->base(), static_cast<int>(v)).to_string());
        }
        auto resp = run_trace(cloud_, probe_trace);
        if (resp[d.call_index].ok) {
          true_hi = v;
          break;
        }
      }
      if (true_hi < 0) return std::nullopt;
      // Patch the spec's bound literal: the `<= doc_hi` comparison.
      bool patched = false;
      for (auto& s : t->body) {
        if (s->kind != StmtKind::kAssert || !s->expr) continue;
        std::function<void(spec::Expr&)> walk = [&](spec::Expr& e) {
          if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kLe &&
              e.kids[1]->kind == ExprKind::kLiteral && e.kids[1]->literal.is_int() &&
              e.kids[1]->literal.as_int() == doc_hi) {
            e.kids[1] = spec::make_literal(Value(true_hi));
            patched = true;
          }
          for (auto& k : e.kids) walk(*k);
        };
        walk(*s->expr);
      }
      if (!patched) return std::nullopt;
      emu_.replace_spec(std::move(spec));
      return RepairAction{RepairAction::Kind::kTightenBound, d.cls.machine, d.cls.transition,
                          strf("'", d.cls.bound_param, "' bound re-learned: ", doc_hi, " -> ",
                               true_hi, " (docs overstated)")};
    }
    case ClassKind::kMemberProbe: {
      // The docs listed a member the cloud rejects: remove it from the
      // in_list assert (and the emulator's error code for it becomes the
      // assert's own, which the next round verifies).
      bool patched = false;
      for (auto& s : t->body) {
        if (s->kind != StmtKind::kAssert || !s->expr) continue;
        std::function<void(spec::Expr&)> walk = [&](spec::Expr& e) {
          if (e.kind == ExprKind::kBuiltin && e.name == "in_list" && !e.kids.empty()) {
            const auto* head = e.kids[0].get();
            if (head->kind == ExprKind::kVar && head->name == d.cls.member_param) {
              auto& kids = e.kids;
              for (std::size_t i = 1; i < kids.size(); ++i) {
                if (kids[i]->kind == ExprKind::kLiteral &&
                    kids[i]->literal.is_str() &&
                    kids[i]->literal.as_str() == d.cls.member_value) {
                  kids.erase(kids.begin() + static_cast<std::ptrdiff_t>(i));
                  patched = true;
                  break;
                }
              }
            }
          }
          for (auto& k : e.kids) walk(*k);
        };
        walk(*s->expr);
      }
      if (!patched) return std::nullopt;
      // The assert's code may also need the cloud's: adopt it.
      for (auto& s : t->body) {
        if (s->kind != StmtKind::kAssert || !s->expr) continue;
        std::string text = s->expr->to_text();
        if (text.find("in_list") != std::string::npos &&
            text.find(d.cls.member_param) != std::string::npos) {
          s->error_code = code;
        }
      }
      emu_.replace_spec(std::move(spec));
      return RepairAction{RepairAction::Kind::kTightenEnum, d.cls.machine,
                          d.cls.transition,
                          strf("stale member '", d.cls.member_value,
                               "' removed from '", d.cls.member_param,
                               "' domain (cloud rejects it with '", code, "')")};
    }
    default: {
      // State-sweep divergences belong to the evidence-driven inference
      // path; a dependency-style fallback here would guess wrong guards.
      if (d.cls.kind == ClassKind::kStateSweep) return std::nullopt;
      // Fallback heuristics: dependency-style failures.
      if (code == errc::kDependencyViolation || code == errc::kResourceInUse) {
        // Is some ref attr attached on the emulator at probe time? Replay
        // the prefix only.
        emu_.reset();
        std::vector<ApiResponse> prior;
        for (std::size_t i = 0; i < d.call_index; ++i) {
          prior.push_back(emu_.invoke(resolve_placeholders(d.trace.calls[i], prior)));
        }
        ApiRequest probe = resolve_placeholders(d.trace.calls[d.call_index], prior);
        std::string target =
            !probe.target.empty()           ? probe.target
            : probe.args.count("id") != 0   ? std::string(probe.args.at("id").as_str())
                                            : "";
        const interp::Resource* self = emu_.store().find(target);
        if (self != nullptr) {
          for (const auto& sv : m->states) {
            if (sv.type.kind != spec::TypeKind::kRef) continue;
            const Value* cur = self->attrs.get(sv.name);
            if (cur == nullptr || cur->is_null()) continue;
            auto pred = spec::make_builtin("is_null", [&] {
              std::vector<spec::ExprPtr> v;
              v.push_back(spec::make_field(spec::make_self(), sv.name));
              return v;
            }());
            if (!insert_precondition(*t, assert_stmt(std::move(pred), code))) {
              return std::nullopt;
            }
            emu_.replace_spec(std::move(spec));
            return RepairAction{RepairAction::Kind::kAddNullGuard, d.cls.machine,
                                d.cls.transition,
                                strf("learned guard on '", sv.name, "' -> '", code, "'")};
          }
          if (emu_.store().child_count(target) != 0) {
            auto pred = spec::make_binary(
                BinaryOp::kEq,
                spec::make_builtin("child_count", [] {
                  std::vector<spec::ExprPtr> v;
                  v.push_back(spec::make_literal(Value("")));
                  return v;
                }()),
                spec::make_literal(Value(0)));
            if (!insert_precondition(*t, assert_stmt(std::move(pred), code))) {
              return std::nullopt;
            }
            emu_.replace_spec(std::move(spec));
            return RepairAction{RepairAction::Kind::kAddReclaimGuard, d.cls.machine,
                                d.cls.transition, strf("learned code '", code, "'")};
          }
        }
      }
      return std::nullopt;
    }
  }
}

std::vector<RepairAction> Repairer::repair_state_checks(
    const std::vector<StateCheck>& checks) {
  std::vector<RepairAction> actions;
  std::optional<spec::SpecSet> spec;  // cloned once, at the first usable check
  for (const StateCheck& check : checks) {
    // Discriminating evidence: at least one passing and one failing member.
    std::vector<std::string> passing;
    std::map<std::string, int> code_votes;
    for (const auto& [member, outcome] : check.evidence.outcome_by_member) {
      if (outcome.empty()) {
        passing.push_back(member);
      } else {
        ++code_votes[outcome];
      }
    }
    if (passing.empty() || code_votes.empty()) continue;
    std::string code = code_votes.begin()->first;
    for (const auto& [c, n] : code_votes) {
      if (n > code_votes[code]) code = c;
    }

    if (!spec) spec = emu_.spec().clone();
    StateMachine* m = spec->find_machine(check.machine);
    Transition* t = m != nullptr ? m->find_transition(check.transition) : nullptr;
    if (t == nullptr) continue;
    // Literal types follow the swept attribute: bool sweeps compare against
    // true/false values, enum sweeps against member strings.
    const spec::StateVar* sv = m->find_state(check.attr);
    bool is_bool = sv != nullptr && sv->type.kind == spec::TypeKind::kBool;
    std::vector<spec::ExprPtr> args;
    args.push_back(spec::make_field(spec::make_self(), check.attr));
    for (const auto& v : passing) {
      args.push_back(spec::make_literal(is_bool ? Value(v == "true") : Value(v)));
    }
    if (!insert_precondition(
            *t, assert_stmt(spec::make_builtin("in_list", std::move(args)), code))) {
      continue;
    }
    actions.push_back(RepairAction{
        RepairAction::Kind::kAddStateCheck, check.machine, check.transition,
        strf("learned: only valid from ", check.attr, " in {", join(passing, ", "),
             "}, else '", code, "'")});
  }
  if (!actions.empty()) emu_.replace_spec(std::move(*spec));
  return actions;
}

std::optional<RepairAction> Repairer::repair_payload(const Discrepancy& d) {
  if (!d.cloud.data.is_map() || !d.emulator.data.is_map()) return std::nullopt;
  spec::SpecSet spec = emu_.spec().clone();

  // Identify the machine whose payload diverged: the probe call's owner.
  const std::string& api = d.trace.calls[d.call_index].api;
  auto [mc, tc] = spec.find_api(api);
  if (mc == nullptr || tc == nullptr) return std::nullopt;
  StateMachine* m = spec.find_machine(mc->name);
  Transition* t = m->find_transition(tc->name);

  // 1. Keys present on the cloud but missing from the emulator: a state
  //    variable the docs (or the LLM) lost.
  for (const auto& [key, cloud_v] : d.cloud.data.as_map()) {
    if (d.emulator.data.has(key)) continue;
    spec::StateVar sv;
    sv.name = key;
    sv.type = type_for_value(cloud_v);
    sv.initial = cloud_v;
    m->states.push_back(std::move(sv));
    emu_.replace_spec(std::move(spec));
    return RepairAction{RepairAction::Kind::kAddStateVar, m->name, "",
                        strf("state '", key, "' learned from cloud payload (initial ",
                             cloud_v.to_text(), ")")};
  }
  // 2. Keys the emulator invents: drop the hallucinated state variable
  //    (and any writes to it).
  for (const auto& [key, emu_v] : d.emulator.data.as_map()) {
    (void)emu_v;
    if (d.cloud.data.has(key)) continue;
    m->states.erase(std::remove_if(m->states.begin(), m->states.end(),
                                   [&](const spec::StateVar& sv) { return sv.name == key; }),
                    m->states.end());
    for (auto& tt : m->transitions) {
      tt.body.erase(std::remove_if(tt.body.begin(), tt.body.end(),
                                   [&](const spec::StmtPtr& s) {
                                     return s->kind == StmtKind::kWrite && s->var == key;
                                   }),
                    tt.body.end());
    }
    emu_.replace_spec(std::move(spec));
    return RepairAction{RepairAction::Kind::kDropStateVar, m->name, "",
                        strf("dropped hallucinated state '", key, "'")};
  }
  // 3. Same keys, different values.
  for (const auto& [key, cloud_v] : d.cloud.data.as_map()) {
    const Value* emu_v = d.emulator.data.get(key);
    if (emu_v == nullptr || *emu_v == cloud_v) continue;
    if (cloud_v.is_ref() && emu_v->is_ref()) continue;  // ids compare equal

    if (t->kind == TransitionKind::kCreate) {
      // Wrong value straight out of create: fix the write literal when one
      // exists; else, when the create passed the cloud's value in one of
      // its parameters, write that parameter; else patch the initial.
      // (Patching the initial to one trace's argument flips it again on
      // the next trace's.)
      for (auto& s : t->body) {
        if (s->kind == StmtKind::kWrite && s->var == key && s->expr &&
            s->expr->kind == ExprKind::kLiteral) {
          s->expr = spec::make_literal(cloud_v);
          emu_.replace_spec(std::move(spec));
          return RepairAction{RepairAction::Kind::kPatchWriteLiteral, m->name, t->name,
                              strf("write(", key, ") learned as ", cloud_v.to_text())};
        }
      }
      const Value::Map& args = d.trace.calls[d.call_index].args;
      for (const auto& p : t->params) {
        auto arg = args.find(p.name);
        if (arg == args.end() || arg->second != cloud_v) continue;
        auto w = std::make_unique<spec::Stmt>();
        w->kind = StmtKind::kWrite;
        w->var = key;
        w->expr = spec::make_var(p.name);
        t->body.push_back(std::move(w));
        emu_.replace_spec(std::move(spec));
        return RepairAction{RepairAction::Kind::kAddWriteEffect, m->name, t->name,
                            strf("learned effect: ", t->name, " sets '", key,
                                 "' from param '", p.name, "'")};
      }
      for (auto& sv : m->states) {
        if (sv.name == key) {
          sv.initial = cloud_v;
          emu_.replace_spec(std::move(spec));
          return RepairAction{RepairAction::Kind::kPatchInitial, m->name, "",
                              strf("initial '", key, "' learned as ", cloud_v.to_text())};
        }
      }
    }
    if (t->kind == TransitionKind::kDescribe && d.call_index > 0) {
      // The divergence is the footprint of the PREVIOUS call: a modify
      // whose effect the spec lost (silent transition).
      const ApiRequest& prev = d.trace.calls[d.call_index - 1];
      auto [pm, pt] = spec.find_api(prev.api);
      if (pm != nullptr && pt != nullptr && pm->name == m->name) {
        Transition* prev_t = m->find_transition(pt->name);
        // Prefer wiring the effect to a parameter carrying the value.
        std::string source_param;
        for (const auto& [pname, pval] : prev.args) {
          if (pname != "id" && pval == cloud_v) source_param = pname;
        }
        auto w = std::make_unique<spec::Stmt>();
        w->kind = StmtKind::kWrite;
        w->var = key;
        w->expr = source_param.empty() ? spec::make_literal(cloud_v)
                                       : spec::make_var(source_param);
        prev_t->body.push_back(std::move(w));
        emu_.replace_spec(std::move(spec));
        return RepairAction{
            RepairAction::Kind::kAddWriteEffect, m->name, prev_t->name,
            strf("learned effect: ", prev_t->name, " sets '", key, "' ",
                 source_param.empty() ? strf("to ", cloud_v.to_text())
                                      : strf("from param '", source_param, "'"))};
      }
    }
  }
  return std::nullopt;
}

}  // namespace lce::align
