#include "align/trace_gen.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/cidr.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "interp/timers.h"

namespace lce::align {

std::string to_string(ClassKind k) {
  switch (k) {
    case ClassKind::kHappyPath: return "happy-path";
    case ClassKind::kAssertViolation: return "assert-violation";
    case ClassKind::kStateSweep: return "state-sweep";
    case ClassKind::kRefAttrSweep: return "ref-attr-sweep";
    case ClassKind::kBoolCoupling: return "bool-coupling";
    case ClassKind::kBoundaryProbe: return "boundary-probe";
    case ClassKind::kMemberProbe: return "member-probe";
    case ClassKind::kTimerFire: return "timer-fire";
    case ClassKind::kTimerInterleave: return "timer-interleave";
  }
  return "?";
}

namespace {

using spec::BinaryOp;
using spec::Expr;
using spec::ExprKind;
using spec::StateMachine;
using spec::StmtKind;
using spec::Transition;
using spec::TransitionKind;

// Generated back-reference transitions are internal to the emulator; they
// must never appear in traces sent to the cloud.
bool is_internal_transition(const std::string& name) {
  return ends_with(name, "BackRef");
}

// -------------------------------------------------- assert-shape matching --

enum class Shape {
  kExists, kInList, kCidrValid, kPrefixRange, kWithinParent, kSiblingOverlap,
  kIntRange, kRefAttrMatch, kAttrEquals, kAttrNotEquals, kAttrNull,
  kTrueRequires, kChildrenReclaimed, kUnknown,
};

struct AssertInfo {
  Shape shape = Shape::kUnknown;
  std::string param;   // constrained parameter
  std::string attr;    // involved self/target attribute
  std::string parent_param;              // kWithinParent: link param
  std::vector<std::string> values;       // kInList members
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  Value literal;       // kAttrEquals / kAttrNotEquals expected value
  std::string code;    // assert's error code
};

bool is_var(const Expr& e, std::string* name = nullptr) {
  if (e.kind != ExprKind::kVar) return false;
  if (name != nullptr) *name = e.name;
  return true;
}

bool is_self_field(const Expr& e, std::string* attr = nullptr) {
  if (e.kind != ExprKind::kField || e.kids[0]->kind != ExprKind::kSelf) return false;
  if (attr != nullptr) *attr = e.name;
  return true;
}

bool is_builtin(const Expr& e, std::string_view fn) {
  return e.kind == ExprKind::kBuiltin && e.name == fn;
}

bool is_int_literal(const Expr& e, std::int64_t* v = nullptr) {
  if (e.kind != ExprKind::kLiteral || !e.literal.is_int()) return false;
  if (v != nullptr) *v = e.literal.as_int();
  return true;
}

/// Strip a leading "is_null(p) || ..." guard, returning the inner predicate.
const Expr& strip_null_guard(const Expr& e, std::string* guarded) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kOr &&
      is_builtin(*e.kids[0], "is_null") && e.kids[0]->kids.size() == 1 &&
      e.kids[0]->kids[0]->kind == ExprKind::kVar) {
    if (guarded != nullptr) *guarded = e.kids[0]->kids[0]->name;
    return *e.kids[1];
  }
  return e;
}

AssertInfo analyze_assert(const spec::Stmt& s) {
  AssertInfo info;
  info.code = s.error_code;
  if (!s.expr) return info;
  std::string guarded;
  const Expr& e = strip_null_guard(*s.expr, &guarded);

  // exists(p[, "T"])
  if (is_builtin(e, "exists") && !e.kids.empty() && is_var(*e.kids[0], &info.param)) {
    info.shape = Shape::kExists;
    if (e.kids.size() > 1 && e.kids[1]->kind == ExprKind::kLiteral) {
      info.attr = e.kids[1]->literal.as_str();  // expected type
    }
    return info;
  }
  // in_list(p, v...)
  if (is_builtin(e, "in_list") && !e.kids.empty() && is_var(*e.kids[0], &info.param)) {
    info.shape = Shape::kInList;
    for (std::size_t i = 1; i < e.kids.size(); ++i) {
      if (e.kids[i]->kind == ExprKind::kLiteral) {
        info.values.emplace_back(e.kids[i]->literal.as_str());
      }
    }
    return info;
  }
  // cidr_valid(p)
  if (is_builtin(e, "cidr_valid") && !e.kids.empty() && is_var(*e.kids[0], &info.param)) {
    info.shape = Shape::kCidrValid;
    return info;
  }
  // (cidr_prefix_len(p) >= lo) && (cidr_prefix_len(p) <= hi)
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd &&
      e.kids[0]->kind == ExprKind::kBinary && e.kids[0]->binary_op == BinaryOp::kGe &&
      is_builtin(*e.kids[0]->kids[0], "cidr_prefix_len")) {
    const Expr& lo_e = *e.kids[0];
    const Expr& hi_e = *e.kids[1];
    if (is_var(*lo_e.kids[0]->kids[0], &info.param) && is_int_literal(*lo_e.kids[1], &info.lo) &&
        hi_e.kind == ExprKind::kBinary && hi_e.binary_op == BinaryOp::kLe &&
        is_builtin(*hi_e.kids[0], "cidr_prefix_len") && is_int_literal(*hi_e.kids[1], &info.hi)) {
      info.shape = Shape::kPrefixRange;
      return info;
    }
  }
  // cidr_within(p, link.attr)
  if (is_builtin(e, "cidr_within") && e.kids.size() == 2 && is_var(*e.kids[0], &info.param) &&
      e.kids[1]->kind == ExprKind::kField && is_var(*e.kids[1]->kids[0], &info.parent_param)) {
    info.shape = Shape::kWithinParent;
    info.attr = e.kids[1]->name;
    return info;
  }
  // !sibling_cidr_conflict(p[, "attr"])
  if (e.kind == ExprKind::kUnary && e.unary_op == spec::UnaryOp::kNot &&
      is_builtin(*e.kids[0], "sibling_cidr_conflict") && !e.kids[0]->kids.empty() &&
      is_var(*e.kids[0]->kids[0], &info.param)) {
    info.shape = Shape::kSiblingOverlap;
    if (e.kids[0]->kids.size() > 1 && e.kids[0]->kids[1]->kind == ExprKind::kLiteral) {
      info.attr = e.kids[0]->kids[1]->literal.as_str();
    }
    return info;
  }
  // (p >= lo) && (p <= hi)
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd &&
      e.kids[0]->kind == ExprKind::kBinary && e.kids[0]->binary_op == BinaryOp::kGe &&
      is_var(*e.kids[0]->kids[0], &info.param) && is_int_literal(*e.kids[0]->kids[1], &info.lo) &&
      e.kids[1]->kind == ExprKind::kBinary && e.kids[1]->binary_op == BinaryOp::kLe &&
      is_int_literal(*e.kids[1]->kids[1], &info.hi)) {
    info.shape = Shape::kIntRange;
    return info;
  }
  // p.attr == self.attr
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kEq &&
      e.kids[0]->kind == ExprKind::kField && is_var(*e.kids[0]->kids[0], &info.param) &&
      is_self_field(*e.kids[1], &info.attr)) {
    info.shape = Shape::kRefAttrMatch;
    return info;
  }
  // self.attr == lit / self.attr != lit
  if (e.kind == ExprKind::kBinary &&
      (e.binary_op == BinaryOp::kEq || e.binary_op == BinaryOp::kNe) &&
      is_self_field(*e.kids[0], &info.attr) && e.kids[1]->kind == ExprKind::kLiteral) {
    info.shape = e.binary_op == BinaryOp::kEq ? Shape::kAttrEquals : Shape::kAttrNotEquals;
    info.literal = e.kids[1]->literal;
    return info;
  }
  // is_null(self.attr)
  if (is_builtin(e, "is_null") && !e.kids.empty() && is_self_field(*e.kids[0], &info.attr)) {
    info.shape = Shape::kAttrNull;
    return info;
  }
  // !p || self.attr
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kOr &&
      e.kids[0]->kind == ExprKind::kUnary && e.kids[0]->unary_op == spec::UnaryOp::kNot &&
      is_var(*e.kids[0]->kids[0], &info.param) && is_self_field(*e.kids[1], &info.attr)) {
    info.shape = Shape::kTrueRequires;
    return info;
  }
  // child_count("") == 0
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kEq &&
      is_builtin(*e.kids[0], "child_count")) {
    info.shape = Shape::kChildrenReclaimed;
    return info;
  }
  return info;
}

/// Collect the asserts of a body (top-level; if-bodies excluded — guarded
/// statements are conditional behaviour, not preconditions).
std::vector<const spec::Stmt*> collect_asserts(const spec::Body& body) {
  std::vector<const spec::Stmt*> out;
  for (const auto& s : body) {
    if (s->kind == StmtKind::kAssert) out.push_back(s.get());
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- spec index --

/// The lookups a builder repeats thousands of times per corpus, computed
/// once per generator: machines by name (SpecSet::find_machine is a linear
/// scan), and the candidate transitions for drive_attr's family 3.
class SpecIndex {
 public:
  using Site = std::pair<const StateMachine*, const Transition*>;

  explicit SpecIndex(const spec::SpecSet& spec) {
    // emplace keeps the first machine of a name, as find_machine does.
    for (const auto& m : spec.machines) machines_.emplace(m.name, &m);
    for (const auto& other : spec.machines) {
      for (const auto& t : other.transitions) {
        if (is_internal_transition(t.name)) continue;
        std::vector<std::string_view> callees;
        collect_callees(t.body, callees);
        if (callees.empty()) continue;
        for (const auto& target : spec.machines) {
          if (target.name == other.name || machine(target.name) != &target) continue;
          for (std::string_view callee_name : callees) {
            const Transition* callee = target.find_transition(callee_name);
            if (callee == nullptr) continue;
            for (const auto& cs : callee->body) {
              if (cs->kind != StmtKind::kWrite) continue;
              std::vector<Site>& sites = writers_[target.name][cs->var];
              if (sites.empty() || sites.back().second != &t) {
                sites.emplace_back(&other, &t);
              }
            }
          }
        }
      }
    }
  }

  const StateMachine* machine(std::string_view name) const {
    auto it = machines_.find(name);
    return it == machines_.end() ? nullptr : it->second;
  }

  /// Non-internal transitions of machines other than `target`, in spec
  /// order, whose body (if-branches included) calls a transition of
  /// `target` that writes `attr` — e.g. AssociateAddress for
  /// (NetworkInterface, public_ip).
  const std::vector<Site>& backref_writers(std::string_view target,
                                           std::string_view attr) const {
    static const std::vector<Site> kNone;
    auto m = writers_.find(target);
    if (m == writers_.end()) return kNone;
    auto a = m->second.find(attr);
    return a == m->second.end() ? kNone : a->second;
  }

 private:
  static void collect_callees(const spec::Body& body,
                              std::vector<std::string_view>& out) {
    for (const auto& s : body) {
      if (s->kind == StmtKind::kCall) out.push_back(s->callee);
      if (s->kind == StmtKind::kIf) {
        collect_callees(s->then_body, out);
        collect_callees(s->else_body, out);
      }
    }
  }

  // Keys view strings owned by the spec, which outlives the index.
  std::unordered_map<std::string_view, const StateMachine*> machines_;
  std::unordered_map<std::string_view,
                     std::unordered_map<std::string_view, std::vector<Site>>>
      writers_;
};

namespace {

// ---------------------------------------------------------------- builder --

/// Incrementally assembles one trace: dependency-ordered creates with
/// planned (predicted) attribute values, driver calls, and the probe.
class Builder {
 public:
  Builder(const spec::SpecSet& spec, const SpecIndex& index)
      : spec_(spec), index_(index) {}

  Trace& trace() { return trace_; }
  std::string fail_reason;

  /// Plan of a created resource: predicted attribute values ("$k.id"
  /// strings stand for refs to earlier calls).
  struct Planned {
    std::string machine;
    Value::Map attrs;
  };

  const Planned* planned(std::size_t idx) const {
    auto it = planned_.find(idx);
    return it == planned_.end() ? nullptr : &it->second;
  }

  /// Create an instance of `machine`; returns the call index. Overrides
  /// force specific post-create attribute values (by steering the args
  /// that write them). Returns nullopt (with fail_reason) when unsolvable.
  std::optional<std::size_t> create_instance(const std::string& machine,
                                             const Value::Map& overrides = {},
                                             int depth = 0) {
    if (depth > 6) {
      fail_reason = "create recursion too deep for " + machine;
      return std::nullopt;
    }
    const StateMachine* m = index_.machine(machine);
    if (m == nullptr) {
      fail_reason = "unknown machine " + machine;
      return std::nullopt;
    }
    const Transition* create = nullptr;
    for (const auto& t : m->transitions) {
      if (t.kind == TransitionKind::kCreate) {
        create = &t;
        break;
      }
    }
    if (create == nullptr) {
      fail_reason = "no create transition on " + machine;
      return std::nullopt;
    }
    auto args = solve_args(*m, *create, /*self_idx=*/std::nullopt, overrides, depth);
    if (!args) return std::nullopt;
    std::size_t idx = trace_.add(create->name, std::move(*args));
    plan_effects(*m, *create, idx);
    return idx;
  }

  /// Append a probe/driver call of `t` on the instance created at
  /// `self_idx` (nullopt for create transitions), with `forced` argument
  /// values taking precedence over happy solving.
  std::optional<std::size_t> call_on(const StateMachine& m, const Transition& t,
                                     std::optional<std::size_t> self_idx,
                                     const Value::Map& forced_args = {},
                                     const Value::Map& overrides = {}) {
    auto args = solve_args(m, t, self_idx, overrides, /*depth=*/0, &forced_args);
    if (!args) return std::nullopt;
    if (t.kind != TransitionKind::kCreate) {
      if (!self_idx) {
        fail_reason = "non-create call without target";
        return std::nullopt;
      }
      (*args)["id"] = Value(strf("$", *self_idx, ".id"));
    }
    std::size_t idx = trace_.add(t.name, std::move(*args));
    if (t.kind == TransitionKind::kCreate) {
      plan_effects(m, t, idx);
    } else if (self_idx) {
      apply_writes_to_plan(m, t, *self_idx, trace_.calls[idx].args);
    }
    return idx;
  }

  /// Ensure self's attribute `attr` satisfies `pred` by appending driver
  /// calls found in the spec. Returns false when no driver works.
  bool drive_attr(const std::string& machine, std::size_t self_idx, const std::string& attr,
                  const std::function<bool(const Value&)>& pred, int depth = 0) {
    const Planned* p = planned(self_idx);
    if (p == nullptr) return false;
    Value current = p->attrs.count(attr) != 0 ? p->attrs.at(attr) : Value();
    if (pred(current)) return true;
    if (depth > 2) return false;
    const StateMachine* m = index_.machine(machine);
    if (m == nullptr) return false;

    // Family 1: a transition on self writing a constant that satisfies
    // pred, whose own preconditions hold in the planned state.
    for (const auto& t : m->transitions) {
      if (is_internal_transition(t.name)) continue;
      if (t.kind != TransitionKind::kModify && t.kind != TransitionKind::kAction) continue;
      for (const auto& s : t.body) {
        if (s->kind != StmtKind::kWrite || s->var != attr || !s->expr) continue;
        if (s->expr->kind == ExprKind::kLiteral && pred(s->expr->literal)) {
          if (!preconditions_hold(*m, t, self_idx)) continue;
          if (call_on(*m, t, self_idx)) return true;
        }
        // Family 2: writes the param directly -> force a satisfying value.
        std::string pname;
        if (is_var(*s->expr, &pname)) {
          const spec::Param* param = nullptr;
          for (const auto& pp : t.params) {
            if (pp.name == pname) param = &pp;
          }
          if (param == nullptr) continue;
          Value candidate = candidate_for(*param, t, pred);
          if (candidate.is_null() && !pred(Value())) continue;
          if (!pred(candidate) && !candidate.is_null()) continue;
          if (!preconditions_hold(*m, t, self_idx)) continue;
          Value::Map forced{{pname, candidate}};
          if (call_on(*m, t, self_idx, forced)) return true;
        }
      }
    }

    // Family 3 (ref attrs): another machine's transition that call()s into
    // us and writes `attr` (e.g. AssociateAddress driving nic.public_ip).
    for (const auto& [other, t] : index_.backref_writers(machine, attr)) {
      // Create the other instance and call the transition with its ref
      // param bound to self.
      Value::Map overrides;
      // Match attrs the transition requires to equal ours (zone checks).
      for (const spec::Stmt* a : collect_asserts(t->body)) {
        AssertInfo info = analyze_assert(*a);
        if (info.shape == Shape::kRefAttrMatch) {
          const Planned* self_p = planned(self_idx);
          if (self_p != nullptr && self_p->attrs.count(info.attr) != 0) {
            overrides[info.attr] = self_p->attrs.at(info.attr);
          }
        }
      }
      auto other_idx = create_instance(other->name, overrides, depth + 1);
      if (!other_idx) continue;
      // Find the ref param of our type.
      std::string ref_param;
      for (const auto& pp : t->params) {
        if (pp.type.kind == spec::TypeKind::kRef && pp.type.ref_type == machine) {
          ref_param = pp.name;
        }
      }
      if (ref_param.empty()) continue;
      Value::Map forced{{ref_param, Value(strf("$", self_idx, ".id"))}};
      if (call_on(*index_.machine(other->name), *t, other_idx, forced)) {
        // Predict the back-reference write on self.
        plan_set(self_idx, attr, Value(strf("$", *other_idx, ".id")));
        const Planned* self_p = planned(self_idx);
        if (self_p != nullptr && pred(self_p->attrs.at(attr))) return true;
      }
    }
    return false;
  }

  /// Create a containment child of `machine` under self (for violating
  /// reclamation guards). Returns false when the spec has no child type.
  bool create_child_of(const std::string& machine, std::size_t self_idx) {
    for (const auto& child : spec_.machines) {
      if (child.parent_type != machine) continue;
      auto saved_calls = trace_.calls.size();
      if (create_child_instance(child.name, self_idx)) return true;
      trace_.calls.resize(saved_calls);
    }
    return false;
  }

  void plan_set(std::size_t idx, const std::string& attr, Value v) {
    planned_[idx].attrs[attr] = std::move(v);
  }

  /// Solve arguments for transition `t` with happy semantics, honoring
  /// forced args and attribute overrides.
  std::optional<Value::Map> solve_args(const StateMachine& m, const Transition& t,
                                       std::optional<std::size_t> self_idx,
                                       const Value::Map& overrides, int depth,
                                       const Value::Map* forced = nullptr) {
    // Which param writes which attr (for overrides steering).
    std::map<std::string, std::string> attr_to_param;
    for (const auto& s : t.body) {
      if (s->kind == StmtKind::kWrite && s->expr) {
        std::string pname;
        if (is_var(*s->expr, &pname)) attr_to_param[s->var] = pname;
      }
    }
    // Per-param constraints from the asserts.
    std::map<std::string, AssertInfo> constraint;
    for (const spec::Stmt* a : collect_asserts(t.body)) {
      AssertInfo info = analyze_assert(*a);
      if (!info.param.empty() && constraint.count(info.param) == 0 &&
          info.shape != Shape::kExists) {
        constraint[info.param] = info;
      }
      // Prefix bounds refine an existing cidr constraint.
      if (info.shape == Shape::kPrefixRange && constraint.count(info.param) != 0 &&
          constraint[info.param].shape == Shape::kCidrValid) {
        constraint[info.param] = info;
      }
    }
    // Sibling carving parent: the attach_parent param, if any.
    std::string link_param;
    for (const auto& s : t.body) {
      if (s->kind == StmtKind::kAttachParent && s->expr) is_var(*s->expr, &link_param);
    }

    Value::Map args;
    for (const auto& p : t.params) {
      if (forced != nullptr && forced->count(p.name) != 0) {
        args[p.name] = forced->at(p.name);
        continue;
      }
      // Overrides steer params that write overridden attrs.
      bool overridden = false;
      for (const auto& [attr, v] : overrides) {
        auto it = attr_to_param.find(attr);
        if (it != attr_to_param.end() && it->second == p.name) {
          args[p.name] = v;
          overridden = true;
        }
      }
      if (overridden) continue;
      auto v = happy_value(m, t, p, constraint, link_param, args, depth);
      if (!v) return std::nullopt;
      args[p.name] = std::move(*v);
    }
    return args;
  }

 private:
  bool create_child_instance(const std::string& child, std::size_t parent_idx) {
    // Create with the parent ref forced to self.
    const StateMachine* m = index_.machine(child);
    if (m == nullptr) return false;
    const Transition* create = nullptr;
    for (const auto& t : m->transitions) {
      if (t.kind == TransitionKind::kCreate) create = &t;
    }
    if (create == nullptr) return false;
    // Identify the parent-link ref param.
    std::string link_param;
    for (const auto& s : create->body) {
      if (s->kind == StmtKind::kAttachParent && s->expr) is_var(*s->expr, &link_param);
    }
    if (link_param.empty()) return false;
    Value::Map forced{{link_param, Value(strf("$", parent_idx, ".id"))}};
    return call_on(*m, *create, std::nullopt, forced).has_value();
  }

  /// Do t's self-state preconditions hold in the planned state of self?
  bool preconditions_hold(const StateMachine& m, const Transition& t,
                          std::size_t self_idx) {
    (void)m;
    const Planned* p = planned(self_idx);
    if (p == nullptr) return false;
    for (const spec::Stmt* a : collect_asserts(t.body)) {
      AssertInfo info = analyze_assert(*a);
      Value cur = p->attrs.count(info.attr) != 0 ? p->attrs.at(info.attr) : Value();
      switch (info.shape) {
        case Shape::kAttrEquals:
          if (!(cur == info.literal)) return false;
          break;
        case Shape::kAttrNotEquals:
          if (cur == info.literal) return false;
          break;
        case Shape::kAttrNull:
          if (!cur.is_null()) return false;
          break;
        default:
          break;
      }
    }
    return true;
  }

  /// A candidate argument value for `param` satisfying the driver's target
  /// predicate (bool first, then enum members, then a plain string).
  Value candidate_for(const spec::Param& param, const Transition& t,
                      const std::function<bool(const Value&)>& pred) {
    if (param.type.kind == spec::TypeKind::kBool) {
      if (pred(Value(true))) return Value(true);
      if (pred(Value(false))) return Value(false);
      return Value();
    }
    // in_list constraint members.
    for (const spec::Stmt* a : collect_asserts(t.body)) {
      AssertInfo info = analyze_assert(*a);
      if (info.shape == Shape::kInList && info.param == param.name) {
        for (const auto& v : info.values) {
          if (pred(Value(v))) return Value(v);
        }
        return Value();
      }
    }
    if (param.type.kind == spec::TypeKind::kInt) {
      for (std::int64_t v : {1, 0, 100}) {
        if (pred(Value(v))) return Value(v);
      }
      return Value();
    }
    if (pred(Value("driven-value"))) return Value("driven-value");
    return Value();
  }

  /// Predict post-create attribute values for planning.
  void plan_effects(const StateMachine& m, const Transition& t, std::size_t idx) {
    Planned p;
    p.machine = m.name;
    for (const auto& sv : m.states) p.attrs[sv.name] = sv.initial;
    planned_[idx] = std::move(p);
    apply_writes_to_plan(m, t, idx, trace_.calls[idx].args);
  }

  void apply_writes_to_plan(const StateMachine& m, const Transition& t, std::size_t idx,
                            const Value::Map& args) {
    (void)m;
    for (const auto& s : t.body) {
      if (s->kind != StmtKind::kWrite || !s->expr) continue;
      if (s->expr->kind == ExprKind::kLiteral) {
        plan_set(idx, s->var, s->expr->literal);
      } else {
        std::string pname;
        if (is_var(*s->expr, &pname) && args.count(pname) != 0) {
          plan_set(idx, s->var, args.at(pname));
        }
      }
    }
  }

  /// Happy value for one parameter.
  std::optional<Value> happy_value(const StateMachine& m, const Transition& t,
                                   const spec::Param& p,
                                   const std::map<std::string, AssertInfo>& constraint,
                                   const std::string& link_param, const Value::Map& args_so_far,
                                   int depth) {
    // Refs: create the target resource (with attr matching when required).
    if (p.type.kind == spec::TypeKind::kRef) {
      Value::Map overrides;
      for (const spec::Stmt* a : collect_asserts(t.body)) {
        AssertInfo info = analyze_assert(*a);
        if (info.shape == Shape::kRefAttrMatch && info.param == p.name) {
          // Self's attr value: for creates, it comes from an arg already
          // chosen or an initial (best effort).
          auto it = args_so_far.find(info.attr);
          if (it != args_so_far.end()) overrides[info.attr] = it->second;
        }
      }
      std::string target = p.type.ref_type;
      if (target.empty()) {
        fail_reason = strf("untyped ref param ", p.name, " on ", t.name);
        return std::nullopt;
      }
      auto idx = create_instance(target, overrides, depth + 1);
      if (!idx) return std::nullopt;
      return Value(strf("$", *idx, ".id"));
    }

    auto cit = constraint.find(p.name);
    const AssertInfo* info = cit != constraint.end() ? &cit->second : nullptr;

    if (info != nullptr && info->shape == Shape::kInList && !info->values.empty()) {
      return Value(info->values.front());
    }
    if (info != nullptr &&
        (info->shape == Shape::kCidrValid || info->shape == Shape::kPrefixRange ||
         info->shape == Shape::kWithinParent || info->shape == Shape::kSiblingOverlap)) {
      return cidr_value(t, p.name, link_param, args_so_far, /*violate_prefix=*/false);
    }
    if (info != nullptr && info->shape == Shape::kIntRange) {
      return Value((info->lo + info->hi) / 2);
    }
    if (info != nullptr && info->shape == Shape::kTrueRequires) {
      // Safe either way only when the required attr is known true; pick
      // false to stay unconditionally satisfying.
      return Value(false);
    }
    switch (p.type.kind) {
      case spec::TypeKind::kBool: return Value(false);
      case spec::TypeKind::kInt: return Value(1);
      case spec::TypeKind::kList: return Value(Value::List{});
      default: {
        // A cidr-flavored param name without an analyzable assert still
        // deserves a valid block.
        if (contains(p.name, "cidr") || contains(p.name, "address")) {
          return cidr_value(t, p.name, link_param, args_so_far, false);
        }
        return Value(strf("value-", p.name));
      }
    }
  }

 public:
  /// Pick a CIDR for param `pname` of transition `t`: nested in the link
  /// parent's block when one exists, disjoint from previously carved
  /// blocks, prefix within the transition's documented bounds (violated on
  /// request by exceeding the upper bound by one).
  Value cidr_value(const Transition& t, const std::string& pname,
                   const std::string& link_param, const Value::Map& args_so_far,
                   bool violate_prefix) {
    int lo = 16;
    int hi = 28;
    std::string within_attr;
    for (const spec::Stmt* a : collect_asserts(t.body)) {
      AssertInfo info = analyze_assert(*a);
      if (info.param != pname) continue;
      if (info.shape == Shape::kPrefixRange) {
        lo = static_cast<int>(info.lo);
        hi = static_cast<int>(info.hi);
      }
      if (info.shape == Shape::kWithinParent) within_attr = info.attr;
    }
    std::optional<Cidr> parent_cidr;
    if (!within_attr.empty() && !link_param.empty()) {
      auto it = args_so_far.find(link_param);
      if (it != args_so_far.end() && it->second.is_str()) {
        // "$k.id" -> planned attrs of call k.
        std::int64_t k = -1;
        std::string_view ph = it->second.as_str();
        if (ph.size() > 1 && ph[0] == '$') {
          (void)parse_int(ph.substr(1, ph.find('.') - 1), k);
        }
        const Planned* pp = k >= 0 ? planned(static_cast<std::size_t>(k)) : nullptr;
        if (pp != nullptr && pp->attrs.count(within_attr) != 0) {
          parent_cidr = Cidr::parse(pp->attrs.at(within_attr).as_str());
        }
      }
    }
    int prefix = violate_prefix ? hi + 1 : std::clamp(24, lo, hi);
    if (prefix > 32) prefix = 32;
    if (parent_cidr) {
      if (prefix <= parent_cidr->prefix_len()) prefix = parent_cidr->prefix_len() + 4;
      if (prefix > 32) prefix = 32;
      auto sub = parent_cidr->subnet_at(prefix, static_cast<std::uint64_t>(cidr_counter_++));
      if (sub) return Value(sub->to_string());
      return Value(parent_cidr->to_string());
    }
    // Top-level block: distinct /N per call.
    int n = cidr_counter_++;
    return Value(strf("10.", (n % 200) + 1, ".0.0/", std::clamp(16, lo, hi)));
  }


 private:
  const spec::SpecSet& spec_;
  const SpecIndex& index_;
  Trace trace_;
  std::map<std::size_t, Planned> planned_;
  int cidr_counter_ = 0;
};

}  // namespace

// -------------------------------------------------------------- generator --

TraceGenerator::TraceGenerator(const spec::SpecSet& spec)
    : spec_(spec), index_(std::make_unique<const SpecIndex>(spec)) {}

TraceGenerator::~TraceGenerator() = default;

std::vector<GenTrace> TraceGenerator::generate_for(const std::string& machine,
                                                   const std::string& transition) {
  return generate(machine, transition, stats_);
}

std::vector<GenTrace> TraceGenerator::generate(const std::string& machine,
                                               const std::string& transition,
                                               GenStats& stats) const {
  std::vector<GenTrace> out;
  const StateMachine* m = index_->machine(machine);
  const Transition* t = m != nullptr ? m->find_transition(transition) : nullptr;
  if (m == nullptr || t == nullptr || is_internal_transition(transition)) return out;

  auto skip = [&](const std::string& why) {
    ++stats.classes_total;
    stats.skipped.push_back(strf(machine, "::", transition, ": ", why));
  };

  const Transition* describe = nullptr;
  for (const auto& tt : m->transitions) {
    if (tt.kind == TransitionKind::kDescribe) describe = &tt;
  }

  // Common scaffold: create self (or not, for create probes).
  auto build_base = [&](Builder& b, std::optional<std::size_t>& self_idx) -> bool {
    if (t->kind == TransitionKind::kCreate) {
      self_idx = std::nullopt;
      return true;
    }
    auto idx = b.create_instance(machine);
    if (!idx) return false;
    self_idx = idx;
    return true;
  };

  // ------------------------------------------------------- happy path --
  {
    ++stats.classes_total;
    Builder b(spec_, *index_);
    std::optional<std::size_t> self_idx;
    bool ok = build_base(b, self_idx);
    std::optional<std::size_t> probe;
    if (ok) {
      // Happy path also needs self-state preconditions satisfied.
      for (const spec::Stmt* a : collect_asserts(t->body)) {
        AssertInfo info = analyze_assert(*a);
        if (!self_idx) break;
        if (info.shape == Shape::kAttrEquals) {
          ok = ok && b.drive_attr(machine, *self_idx, info.attr,
                                  [&](const Value& v) { return v == info.literal; });
        } else if (info.shape == Shape::kAttrNotEquals) {
          ok = ok && b.drive_attr(machine, *self_idx, info.attr,
                                  [&](const Value& v) { return !(v == info.literal); });
        } else if (info.shape == Shape::kAttrNull) {
          ok = ok && b.drive_attr(machine, *self_idx, info.attr,
                                  [](const Value& v) { return v.is_null(); });
        }
      }
      if (ok) probe = b.call_on(*m, *t, self_idx);
    }
    if (ok && probe) {
      std::size_t target_for_describe =
          t->kind == TransitionKind::kCreate ? *probe : *self_idx;
      if (describe != nullptr && t->kind != TransitionKind::kDescribe &&
          t->kind != TransitionKind::kDestroy) {
        Value::Map args{{"id", Value(strf("$", target_for_describe, ".id"))}};
        b.trace().add(describe->name, std::move(args));
      }
      GenTrace g;
      g.cls.kind = ClassKind::kHappyPath;
      g.cls.machine = machine;
      g.cls.transition = transition;
      g.cls.description = strf(transition, " happy path");
      g.probe_call = *probe;
      g.trace = std::move(b.trace());
      g.trace.label = strf(machine, "::", transition, "/happy");
      out.push_back(std::move(g));
      ++stats.classes_concretized;
    } else {
      skip(b.fail_reason.empty() ? "happy path unsolvable" : b.fail_reason);
    }
  }

  // ----------------------------------------- singular assert violations --
  auto asserts = collect_asserts(t->body);
  for (std::size_t ai = 0; ai < asserts.size(); ++ai) {
    ++stats.classes_total;
    AssertInfo info = analyze_assert(*asserts[ai]);
    Builder b(spec_, *index_);
    std::optional<std::size_t> self_idx;
    if (!build_base(b, self_idx)) {
      skip("setup unsolvable: " + b.fail_reason);
      continue;
    }
    Value::Map forced;
    bool solvable = true;
    std::string why;
    switch (info.shape) {
      case Shape::kExists:
        forced[info.param] = Value::ref("ghost-99999999");
        break;
      case Shape::kInList:
        forced[info.param] = Value("__invalid-member__");
        break;
      case Shape::kCidrValid:
        forced[info.param] = Value("not-a-cidr");
        break;
      case Shape::kPrefixRange: {
        if (info.hi >= 32) {
          solvable = false;
          why = "prefix upper bound already 32";
          break;
        }
        // Need the link arg solved first; do a dry solve of args then
        // override the cidr with an out-of-range prefix.
        auto args = b.solve_args(*m, *t, self_idx, {}, 0);
        if (!args) {
          solvable = false;
          why = "args unsolvable";
          break;
        }
        std::string link_param;
        for (const auto& s : t->body) {
          if (s->kind == StmtKind::kAttachParent && s->expr) is_var(*s->expr, &link_param);
        }
        forced = *args;
        forced[info.param] =
            b.cidr_value(*t, info.param, link_param, *args, /*violate_prefix=*/true);
        break;
      }
      case Shape::kWithinParent:
        forced[info.param] = Value("203.0.113.0/24");
        break;
      case Shape::kSiblingOverlap: {
        // Create a sibling first, then reuse its block.
        if (t->kind != TransitionKind::kCreate) {
          solvable = false;
          why = "sibling violation only for creates";
          break;
        }
        auto sibling = b.create_instance(machine);
        if (!sibling) {
          solvable = false;
          why = "sibling unsolvable";
          break;
        }
        const Builder::Planned* sp = b.planned(*sibling);
        // Reuse the sibling's cidr AND its parent.
        const spec::StateVar* cidr_attr = nullptr;
        for (const auto& sv : m->states) {
          if (contains(sv.name, "cidr") || contains(sv.name, "prefix") ||
              contains(sv.name, "address")) {
            cidr_attr = &sv;
          }
        }
        if (sp == nullptr || cidr_attr == nullptr ||
            sp->attrs.count(cidr_attr->name) == 0) {
          solvable = false;
          why = "cannot locate sibling cidr";
          break;
        }
        forced[info.param] = sp->attrs.at(cidr_attr->name);
        // Same parent: bind the link param to the sibling's parent arg.
        const ApiRequest& sib_call = b.trace().calls[*sibling];
        std::string link_param;
        for (const auto& s : t->body) {
          if (s->kind == StmtKind::kAttachParent && s->expr) is_var(*s->expr, &link_param);
        }
        if (!link_param.empty() && sib_call.args.count(link_param) != 0) {
          forced[link_param] = sib_call.args.at(link_param);
        }
        break;
      }
      case Shape::kIntRange:
        forced[info.param] = Value(info.hi + 1);
        break;
      case Shape::kRefAttrMatch: {
        // Create a mismatching target: override its attr away from ours.
        const StateMachine* target_m = nullptr;
        for (const auto& pp : t->params) {
          if (pp.name == info.param && pp.type.kind == spec::TypeKind::kRef) {
            target_m = index_->machine(pp.type.ref_type);
          }
        }
        if (target_m == nullptr) {
          solvable = false;
          why = "no typed ref param for mismatch";
          break;
        }
        // Self's attr value from planned state (or the create args).
        Value mine;
        if (self_idx) {
          const Builder::Planned* sp = b.planned(*self_idx);
          if (sp != nullptr && sp->attrs.count(info.attr) != 0) mine = sp->attrs.at(info.attr);
        }
        // Candidate differing value: another enum member from the target's
        // create in_list, else "-alt".
        Value other = Value(std::string(mine.as_str()) + "-alt");
        for (const auto& tt : target_m->transitions) {
          if (tt.kind != TransitionKind::kCreate) continue;
          for (const spec::Stmt* a2 : collect_asserts(tt.body)) {
            AssertInfo i2 = analyze_assert(*a2);
            if (i2.shape == Shape::kInList) {
              for (const auto& v : i2.values) {
                if (!(Value(v) == mine)) other = Value(v);
              }
            }
          }
        }
        auto tgt = b.create_instance(target_m->name, {{info.attr, other}});
        if (!tgt) {
          solvable = false;
          why = "mismatch target unsolvable";
          break;
        }
        forced[info.param] = Value(strf("$", *tgt, ".id"));
        break;
      }
      case Shape::kAttrEquals:
        solvable = self_idx && b.drive_attr(machine, *self_idx, info.attr,
                                            [&](const Value& v) { return !(v == info.literal); });
        why = "cannot drive attr away from literal";
        break;
      case Shape::kAttrNotEquals:
        solvable = self_idx && b.drive_attr(machine, *self_idx, info.attr,
                                            [&](const Value& v) { return v == info.literal; });
        why = "cannot drive attr to literal";
        break;
      case Shape::kAttrNull:
        solvable = self_idx && b.drive_attr(machine, *self_idx, info.attr,
                                            [](const Value& v) { return !v.is_null(); });
        why = "cannot make attr non-null";
        break;
      case Shape::kTrueRequires: {
        forced[info.param] = Value(true);
        solvable = self_idx.has_value() &&
                   b.drive_attr(machine, *self_idx, info.attr,
                                [](const Value& v) { return !v.truthy(); });
        why = "cannot drive required attr false";
        break;
      }
      case Shape::kChildrenReclaimed:
        solvable = self_idx && b.create_child_of(machine, *self_idx);
        why = "no creatable child type";
        break;
      case Shape::kUnknown:
        solvable = false;
        why = "unrecognized assert shape: " + asserts[ai]->expr->to_text();
        break;
    }
    if (!solvable) {
      skip(why);
      continue;
    }
    auto probe = b.call_on(*m, *t, self_idx, forced);
    if (!probe) {
      skip("probe args unsolvable: " + b.fail_reason);
      continue;
    }
    GenTrace g;
    g.cls.kind = ClassKind::kAssertViolation;
    g.cls.machine = machine;
    g.cls.transition = transition;
    g.cls.assert_index = static_cast<int>(ai);
    g.cls.expected_code = asserts[ai]->error_code;
    g.cls.description = strf("violate assert #", ai, " (", asserts[ai]->error_code, ")");
    g.probe_call = *probe;
    g.trace = std::move(b.trace());
    g.trace.label = strf(machine, "::", transition, "/violate-", ai);
    out.push_back(std::move(g));
    ++stats.classes_concretized;
  }

  // --------------------------------------------------------- state sweep --
  if (t->kind == TransitionKind::kModify || t->kind == TransitionKind::kAction ||
      t->kind == TransitionKind::kDestroy) {
    for (const auto& sv : m->states) {
      // Enum state vars sweep over their members; bool state vars sweep
      // over {true, false} (toggle preconditions live there).
      std::vector<std::string> members;
      if (sv.type.kind == spec::TypeKind::kEnum) {
        members = sv.type.enum_members;
      } else if (sv.type.kind == spec::TypeKind::kBool) {
        members = {"true", "false"};
      } else {
        continue;
      }
      bool is_bool = sv.type.kind == spec::TypeKind::kBool;
      for (const auto& member : members) {
        // The initial value's behaviour is covered by the happy path.
        if (sv.initial.is_str() && sv.initial.as_str() == member) continue;
        if (sv.initial.is_bool() &&
            std::string(sv.initial.as_bool() ? "true" : "false") == member) {
          continue;
        }
        ++stats.classes_total;
        Builder b(spec_, *index_);
        std::optional<std::size_t> self_idx;
        if (!build_base(b, self_idx) || !self_idx) {
          skip("sweep setup unsolvable");
          continue;
        }
        Value wanted = is_bool ? Value(member == "true") : Value(member);
        if (!b.drive_attr(machine, *self_idx, sv.name,
                          [&](const Value& v) { return v == wanted; })) {
          skip(strf("state '", sv.name, "'='", member, "' unreachable"));
          continue;
        }
        auto probe = b.call_on(*m, *t, self_idx);
        if (!probe) {
          skip("sweep probe unsolvable: " + b.fail_reason);
          continue;
        }
        if (describe != nullptr && t->kind != TransitionKind::kDestroy) {
          Value::Map args{{"id", Value(strf("$", *self_idx, ".id"))}};
          b.trace().add(describe->name, std::move(args));
        }
        GenTrace g;
        g.cls.kind = ClassKind::kStateSweep;
        g.cls.machine = machine;
        g.cls.transition = transition;
        g.cls.description = strf(transition, " from ", sv.name, "=", member);
        g.cls.sweep_attr = sv.name;
        g.cls.sweep_value = member;
        g.probe_call = *probe;
        g.trace = std::move(b.trace());
        g.trace.label = strf(machine, "::", transition, "/sweep-", sv.name, "-", member);
        out.push_back(std::move(g));
        ++stats.classes_concretized;
      }
    }
  }

  // ------------------------------------------------------ ref-attr sweep --
  // Drive each ref state variable non-null before the probe: exposes
  // missing "resource still attached" dependency checks.
  if (t->kind == TransitionKind::kModify || t->kind == TransitionKind::kAction ||
      t->kind == TransitionKind::kDestroy) {
    for (const auto& sv : m->states) {
      if (sv.type.kind != spec::TypeKind::kRef) continue;
      ++stats.classes_total;
      Builder b(spec_, *index_);
      std::optional<std::size_t> self_idx;
      if (!build_base(b, self_idx) || !self_idx) {
        skip("ref sweep setup unsolvable");
        continue;
      }
      if (!b.drive_attr(machine, *self_idx, sv.name,
                        [](const Value& v) { return !v.is_null(); })) {
        skip(strf("ref attr '", sv.name, "' cannot be made non-null"));
        continue;
      }
      auto probe = b.call_on(*m, *t, self_idx);
      if (!probe) {
        skip("ref sweep probe unsolvable: " + b.fail_reason);
        continue;
      }
      GenTrace g;
      g.cls.kind = ClassKind::kRefAttrSweep;
      g.cls.machine = machine;
      g.cls.transition = transition;
      g.cls.description = strf(transition, " with ", sv.name, " attached");
      g.cls.sweep_attr = sv.name;
      g.cls.sweep_value = "non-null";
      g.probe_call = *probe;
      g.trace = std::move(b.trace());
      g.trace.label = strf(machine, "::", transition, "/refsweep-", sv.name);
      out.push_back(std::move(g));
      ++stats.classes_concretized;
    }
  }

  // ------------------------------------------------------- bool coupling --
  // Force each bool parameter to true after driving each bool state var to
  // false: exposes missing "X may only be enabled when Y" couplings.
  if (t->kind == TransitionKind::kModify || t->kind == TransitionKind::kAction) {
    for (const auto& p : t->params) {
      if (p.type.kind != spec::TypeKind::kBool) continue;
      for (const auto& sv : m->states) {
        if (sv.type.kind != spec::TypeKind::kBool) continue;
        ++stats.classes_total;
        Builder b(spec_, *index_);
        std::optional<std::size_t> self_idx;
        if (!build_base(b, self_idx) || !self_idx) {
          skip("bool coupling setup unsolvable");
          continue;
        }
        if (!b.drive_attr(machine, *self_idx, sv.name,
                          [](const Value& v) { return v.is_bool() && !v.as_bool(); })) {
          skip(strf("bool attr '", sv.name, "' cannot be driven false"));
          continue;
        }
        Value::Map forced{{p.name, Value(true)}};
        auto probe = b.call_on(*m, *t, self_idx, forced);
        if (!probe) {
          skip("bool coupling probe unsolvable: " + b.fail_reason);
          continue;
        }
        GenTrace g;
        g.cls.kind = ClassKind::kBoolCoupling;
        g.cls.machine = machine;
        g.cls.transition = transition;
        g.cls.description = strf(transition, "(", p.name, "=true) with ", sv.name, "=false");
        g.cls.sweep_attr = sv.name;
        g.cls.sweep_value = "false";
        g.cls.sweep_param = p.name;
        g.probe_call = *probe;
        g.trace = std::move(b.trace());
        g.trace.label =
            strf(machine, "::", transition, "/coupling-", p.name, "-", sv.name);
        out.push_back(std::move(g));
        ++stats.classes_concretized;
      }
    }
  }

  // ------------------------------------------------------ boundary probes --
  // Exercise numeric constraints AT the documented upper bound: a doc that
  // overstates the bound (e.g. /29 where the cloud stops at /28) diverges
  // exactly here.
  for (const spec::Stmt* a : asserts) {
    AssertInfo info = analyze_assert(*a);
    if (info.shape != Shape::kPrefixRange && info.shape != Shape::kIntRange) continue;
    ++stats.classes_total;
    Builder b(spec_, *index_);
    std::optional<std::size_t> self_idx;
    if (!build_base(b, self_idx)) {
      skip("boundary setup unsolvable");
      continue;
    }
    auto args = b.solve_args(*m, *t, self_idx, {}, 0);
    if (!args) {
      skip("boundary args unsolvable");
      continue;
    }
    Value::Map forced = *args;
    if (info.shape == Shape::kIntRange) {
      forced[info.param] = Value(info.hi);
    } else {
      // Re-carve the happy cidr at exactly the upper-bound prefix length.
      auto cur = Cidr::parse(forced.count(info.param) != 0
                                 ? forced[info.param].as_str()
                                 : "");
      if (!cur) {
        skip("boundary cidr unsolvable");
        continue;
      }
      forced[info.param] = Value(Cidr(cur->base(), static_cast<int>(info.hi)).to_string());
    }
    auto probe = b.call_on(*m, *t, self_idx, forced);
    if (!probe) {
      skip("boundary probe unsolvable: " + b.fail_reason);
      continue;
    }
    GenTrace g;
    g.cls.kind = ClassKind::kBoundaryProbe;
    g.cls.machine = machine;
    g.cls.transition = transition;
    g.cls.description = strf(transition, " with ", info.param, " at bound ", info.hi);
    g.cls.bound_param = info.param;
    g.cls.bound_value = info.hi;
    g.probe_call = *probe;
    g.trace = std::move(b.trace());
    g.trace.label = strf(machine, "::", transition, "/boundary-", info.param);
    out.push_back(std::move(g));
    ++stats.classes_concretized;
  }

  // -------------------------------------------------------- member probes --
  // Exercise every DOCUMENTED enum member individually: documentation that
  // lists a member the cloud rejects (stale docs) diverges exactly on that
  // member's probe.
  for (const spec::Stmt* a : asserts) {
    AssertInfo info = analyze_assert(*a);
    if (info.shape != Shape::kInList || info.values.size() < 2) continue;
    for (std::size_t mi = 1; mi < info.values.size(); ++mi) {  // [0] = happy path
      ++stats.classes_total;
      Builder b(spec_, *index_);
      std::optional<std::size_t> self_idx;
      if (!build_base(b, self_idx)) {
        skip("member probe setup unsolvable");
        continue;
      }
      Value::Map forced{{info.param, Value(info.values[mi])}};
      auto probe = b.call_on(*m, *t, self_idx, forced);
      if (!probe) {
        skip("member probe unsolvable: " + b.fail_reason);
        continue;
      }
      GenTrace g;
      g.cls.kind = ClassKind::kMemberProbe;
      g.cls.machine = machine;
      g.cls.transition = transition;
      g.cls.description =
          strf(transition, "(", info.param, "=", info.values[mi], ")");
      g.cls.member_param = info.param;
      g.cls.member_value = info.values[mi];
      g.probe_call = *probe;
      g.trace = std::move(b.trace());
      g.trace.label =
          strf(machine, "::", transition, "/member-", info.param, "-", mi);
      out.push_back(std::move(g));
      ++stats.classes_concretized;
    }
  }

  // ---------------------------------------------------------- timer moves --
  // When an `after` clause targets this transition the generator learns an
  // advance-clock move: the probe is a virtual-time advance rather than a
  // direct call, so alignment explores timer-fire vs API-call
  // interleavings. Machines without timer clauses emit nothing here, which
  // keeps the learned-pipeline class inventory (and its goldens) unchanged.
  for (const auto& sv : m->states) {
    for (std::size_t ti = 0; ti < sv.timers.size(); ++ti) {
      const auto& tc = sv.timers[ti];
      if (tc.transition != transition) continue;
      const Value trigger = spec::timer_trigger(sv, tc);
      auto arm_self = [&](Builder& b) -> std::optional<std::size_t> {
        auto self_idx = b.create_instance(machine);
        if (!self_idx) return std::nullopt;
        if (!b.drive_attr(machine, *self_idx, sv.name,
                          [&](const Value& v) { return v == trigger; })) {
          b.fail_reason = strf("cannot reach timer trigger ", sv.name);
          return std::nullopt;
        }
        return self_idx;
      };
      auto advance = [&](Builder& b, std::int64_t ticks) {
        Value::Map args{{"ticks", Value(ticks)}};
        return b.trace().add(std::string(interp::timers::kAdvanceClockApi),
                             std::move(args));
      };
      // Fire: arm by reaching the trigger value, advance exactly `delay`
      // ticks, observe the fired transition's writes via describe.
      {
        ++stats.classes_total;
        Builder b(spec_, *index_);
        auto self_idx = arm_self(b);
        if (!self_idx) {
          skip("timer-fire setup unsolvable: " + b.fail_reason);
        } else {
          std::size_t probe = advance(b, tc.delay);
          if (describe != nullptr) {
            Value::Map args{{"id", Value(strf("$", *self_idx, ".id"))}};
            b.trace().add(describe->name, std::move(args));
          }
          GenTrace g;
          g.cls.kind = ClassKind::kTimerFire;
          g.cls.machine = machine;
          g.cls.transition = transition;
          g.cls.description =
              strf(transition, " fired by ", sv.name, " timer after ", tc.delay);
          g.cls.sweep_attr = sv.name;
          g.cls.sweep_value = trigger.is_str() ? std::string(trigger.as_str())
                                               : trigger.to_text();
          g.probe_call = probe;
          g.trace = std::move(b.trace());
          g.trace.label = strf(machine, "::", transition, "/timer-fire-", ti);
          out.push_back(std::move(g));
          ++stats.classes_concretized;
        }
      }
      // Interleave: advance to one tick short of the deadline, move the
      // variable OFF its trigger with an ordinary API call (cancelling the
      // countdown), then cross the original deadline — the fire must not
      // happen. Diverges against an implementation that fires anyway, or
      // that orders the cancel after the fire.
      {
        ++stats.classes_total;
        Builder b(spec_, *index_);
        auto self_idx = arm_self(b);
        // Burn all but the last tick first, so the cancelling driver call
        // drive_attr appends lands mid-countdown (one tick before the
        // deadline). At delay-1 ticks nothing has fired, so the builder's
        // planned state is still accurate when it solves the driver.
        if (self_idx && tc.delay > 1) advance(b, tc.delay - 1);
        bool cancelled =
            self_idx && b.drive_attr(machine, *self_idx, sv.name,
                                     [&](const Value& v) { return !(v == trigger); });
        if (!self_idx) {
          skip("timer-interleave setup unsolvable: " + b.fail_reason);
        } else if (!cancelled) {
          skip(strf("no driver moves ", sv.name, " off its timer trigger"));
        } else {
          std::size_t probe = advance(b, tc.delay);
          if (describe != nullptr) {
            Value::Map args{{"id", Value(strf("$", *self_idx, ".id"))}};
            b.trace().add(describe->name, std::move(args));
          }
          GenTrace g;
          g.cls.kind = ClassKind::kTimerInterleave;
          g.cls.machine = machine;
          g.cls.transition = transition;
          g.cls.description = strf(transition, " cancelled mid-countdown (",
                                   sv.name, " left its trigger)");
          g.cls.sweep_attr = sv.name;
          g.cls.sweep_value = trigger.is_str() ? std::string(trigger.as_str())
                                               : trigger.to_text();
          g.probe_call = probe;
          g.trace = std::move(b.trace());
          g.trace.label =
              strf(machine, "::", transition, "/timer-interleave-", ti);
          out.push_back(std::move(g));
          ++stats.classes_concretized;
        }
      }
    }
  }
  return out;
}

std::vector<GenTrace> TraceGenerator::generate_all(int workers) {
  // One slot per transition in spec order. Transitions are generated
  // independently (every trace gets a fresh Builder over the shared,
  // read-only index), so slots may fill in any order on any thread;
  // joining them in spec order reproduces the serial corpus exactly.
  struct Slot {
    const spec::StateMachine* machine;
    const spec::Transition* transition;
    std::vector<GenTrace> traces;
    GenStats stats;
    std::exception_ptr error;  // rethrown after the join, in spec order
  };
  std::vector<Slot> slots;
  for (const auto& m : spec_.machines) {
    for (const auto& t : m.transitions) slots.push_back({&m, &t, {}, {}, nullptr});
  }
  auto run = [&](Slot& slot) {
    try {
      slot.traces = generate(slot.machine->name, slot.transition->name, slot.stats);
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  int w = workers > 0 ? workers : ThreadPool::hardware_workers();
  w = std::clamp<int>(w, 1, static_cast<int>(std::max<std::size_t>(slots.size(), 1)));
  if (w == 1) {
    for (Slot& slot : slots) run(slot);
  } else {
    // Transitions differ widely in cost, so workers claim slots from a
    // shared counter rather than a fixed stride.
    std::atomic<std::size_t> next{0};
    ThreadPool pool(w);
    for (int k = 0; k < w; ++k) {
      pool.submit([&] {
        for (std::size_t i = next++; i < slots.size(); i = next++) run(slots[i]);
      });
    }
    pool.wait();
  }

  std::size_t total = 0;
  for (const Slot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
    total += slot.traces.size();
  }
  std::vector<GenTrace> out;
  out.reserve(total);
  for (Slot& slot : slots) {
    std::move(slot.traces.begin(), slot.traces.end(), std::back_inserter(out));
    stats_.classes_total += slot.stats.classes_total;
    stats_.classes_concretized += slot.stats.classes_concretized;
    std::move(slot.stats.skipped.begin(), slot.stats.skipped.end(),
              std::back_inserter(stats_.skipped));
  }
  return out;
}

}  // namespace lce::align
