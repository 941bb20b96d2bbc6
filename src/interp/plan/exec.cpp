// Executes compiled plans: a mirror of the tree-walking Execution in
// interpreter.cpp with every name already resolved — dispatch and lock
// mode are table lookups, parameters live in a flat slot vector, state
// variables are read and written by interned KeyId straight into the
// Resource's compact attrs map, and expressions run as postorder op
// arrays over a reused value stack. Any behavioral difference from the
// reference path is a bug; see the equivalence suite.
#include "interp/plan/exec.h"

#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/cidr.h"
#include "common/errors.h"
#include "common/strings.h"
#include "interp/exec_internal.h"
#include "interp/timers.h"

namespace lce::interp::plan {

namespace {

using internal::Abort;
using internal::UndoJournal;
using spec::StateMachine;
using spec::TransitionKind;

/// Interned key for the response's "id" field (every payload carries it).
KeyId id_key() {
  static const KeyId k = intern_key("id");
  return k;
}

// Per-request containers draw from the request arena (ArenaAlloc pins
// the active arena at construction; PlanExecution and every PlanFrame
// live strictly inside the invoke's ArenaScope), so steady-state
// requests do no container mallocs at all.
using ValueVec = std::vector<Value, ArenaAlloc<Value>>;

struct PlanFrame {
  const MachinePlan* mp = nullptr;
  const CompiledTransition* ct = nullptr;
  Resource* self = nullptr;
  ValueVec params;  // indexed by the transition's param order
  // read() outputs in execution order; duplicate vars overwrite when
  // merged into the response map, matching the tree-walk's reads map.
  std::vector<std::pair<const std::string*, Value>,
              ArenaAlloc<std::pair<const std::string*, Value>>>
      reads;
};

class PlanExecution {
 public:
  PlanExecution(const ExecutionPlan& plan, const InterpreterOptions& opts,
                ResourceStore& store, FailureSite* where)
      : plan_(plan), opts_(opts), store_(store), where_(where) {}

  ApiResponse run(const ApiRequest& req) {
    const CompiledTransition* ct = plan_.find_api(req.api);
    if (ct == nullptr) {
      if (where_ != nullptr) {
        where_->origin = FailureSite::Origin::kDispatch;
        where_->error_code = std::string(errc::kInvalidAction);
      }
      return fail("", "", std::string(errc::kInvalidAction), {{"api", req.api}});
    }

    const StateMachine& machine = *ct->machine;
    std::string target = !req.target.empty() ? req.target
                         : req.args.count("id") != 0
                             ? std::string(req.args.at("id").as_str())
                             : "";
    mode_ = ct->lock.mode;
    StripedRwLock::Guard guard;
    switch (mode_) {
      case LockMode::kReadShared:
        // Compile-time locality analysis: a body that provably reads
        // nothing beyond the target needs only the target's shard.
        guard = ct->lock.self_only
                    ? store_.locks().lock_shared_one(store_.shard_of(target))
                    : store_.locks().lock_shared_all();
        break;
      case LockMode::kWriteAll:
        guard = store_.locks().lock_exclusive_all();
        break;
      case LockMode::kWriteLocal: {
        // Mint BEFORE locking so the new resource's shard joins the
        // ordered acquisition set (minting is internally synchronized
        // and journaled for rollback).
        if (ct->kind == TransitionKind::kCreate) {
          preminted_ = store_.mint_id(machine.id_prefix);
          journal_.note_minted(std::string(machine.id_prefix.empty()
                                               ? std::string_view("res")
                                               : std::string_view(machine.id_prefix)),
                               internal::id_suffix_counter(preminted_));
        }
        std::vector<std::size_t> shards;
        shards.reserve(4);  // premint + target + a couple of ref args
        if (!preminted_.empty()) shards.push_back(store_.shard_of(preminted_));
        if (!target.empty()) shards.push_back(store_.shard_of(target));
        for (const auto& [_, v] : req.args) {
          internal::collect_ref_shards(v, store_, shards);
        }
        guard = store_.locks().lock_exclusive(std::move(shards));
        break;
      }
    }

    try {
      ApiResponse resp = run_transition(plan_.machine(ct->machine_index), *ct,
                                        &req.args, nullptr, target);
      commit_timers();
      return resp;
    } catch (Abort& a) {
      // Transactional semantics: a failed transition must leave no
      // partial writes behind. Undo in reverse under the locks we hold.
      journal_.rollback(store_);
      return std::move(a.response);
    }
  }

 private:
  [[noreturn]] void abort_with(std::string code,
                               const std::vector<std::pair<std::string, std::string>>& fields,
                               const std::string& machine, const std::string& transition,
                               std::string note = "",
                               FailureSite::Origin origin = FailureSite::Origin::kDispatch,
                               std::string_view var = {}) {
    std::string msg = note.empty()
                          ? ErrorRegistry::instance().render_message(code, fields)
                          : note;
    if (opts_.decoder) msg = opts_.decoder(machine, transition, code, msg);
    if (where_ != nullptr) {
      where_->machine = machine;
      where_->transition = transition;
      where_->error_code = code;
      where_->stmt = stmt_;
      where_->var = var;
      where_->origin = origin;
    }
    throw Abort{ApiResponse::failure(std::move(code), std::move(msg))};
  }

  ApiResponse fail(const std::string& machine, const std::string& transition, std::string code,
                   const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string msg = ErrorRegistry::instance().render_message(code, fields);
    if (opts_.decoder) msg = opts_.decoder(machine, transition, code, msg);
    return ApiResponse::failure(std::move(code), std::move(msg));
  }

  /// Current value of declared state `slot` on `r` (machine plan `mp`),
  /// nullptr when the attribute is absent: one integer-keyed probe of the
  /// compact attrs map — no string hashing or comparison, no allocation.
  static const Value* state_value(const Resource& r, const MachinePlan& mp,
                                  std::uint32_t slot) {
    return r.attrs.get(mp.slot_key(slot));
  }

  /// Create the target of a kCreate transition. The top-level create of a
  /// kWriteLocal plan consumes the preminted id; everything else (serial
  /// plans, nested creates reached via call() under kWriteAll) mints here.
  Resource& make_resource(const StateMachine& machine) {
    std::string id;
    if (!preminted_.empty()) {
      id = std::move(preminted_);
      preminted_.clear();
    } else {
      id = store_.mint_id(machine.id_prefix);
      journal_.note_minted(std::string(machine.id_prefix.empty()
                                           ? std::string_view("res")
                                           : std::string_view(machine.id_prefix)),
                           internal::id_suffix_counter(id));
    }
    Resource& r = store_.create_with_id(std::move(id), machine.name);
    journal_.note_created(r.id);
    return r;
  }

  /// Mirror of the tree-walk's commit_timers(): reconcile `after` clauses
  /// for every touched resource in touch order (first touch wins) while
  /// the shard locks are still held. Aborts never reach this.
  void commit_timers() {
    for (std::size_t i = 0; i < timer_touched_.size(); ++i) {
      const auto& [id, machine] = timer_touched_[i];
      bool seen = false;
      for (std::size_t j = 0; j < i && !seen; ++j) seen = timer_touched_[j].first == id;
      if (seen) continue;
      if (const Resource* r = store_.find(id)) {
        timers::reconcile(store_, *machine, *r);
      } else {
        store_.timers().cancel_resource(id);
      }
    }
  }

  /// `named` (top-level request args) and `positional` (sub-call argument
  /// values, aligned to the callee's param order) are the two argument
  /// sources; exactly one is non-null. Positional values are moved out.
  ApiResponse run_transition(const MachinePlan& mp, const CompiledTransition& ct,
                             const Value::Map* named, ValueVec* positional,
                             const std::string& target) {
    const StateMachine& machine = *ct.machine;
    const std::string& tname = ct.src->name;
    // A sub-call returns here mid-statement: restore the caller's index so
    // a later abort in that statement still reports it.
    const int caller_stmt = stmt_;
    stmt_ = -1;
    if (++depth_ > internal::kMaxCallDepth) {
      abort_with(std::string(errc::kInternalError), {}, machine.name, tname,
                 "call depth limit exceeded", FailureSite::Origin::kFramework);
    }
    PlanFrame frame;
    frame.mp = &mp;
    frame.ct = &ct;

    // Bind parameters into their slots.
    frame.params.resize(ct.params.size());
    for (std::size_t i = 0; i < ct.params.size(); ++i) {
      const auto& p = ct.params[i];
      const Value* src = nullptr;
      if (named != nullptr) {
        auto it = named->find(*p.name);
        if (it != named->end()) src = &it->second;
      } else if (positional != nullptr && i < positional->size()) {
        src = &(*positional)[i];
      }
      if (src == nullptr) {
        abort_with(std::string(errc::kMissingParameter), {{"param", *p.name}},
                   machine.name, tname);
      }
      if (!src->is_null() && !p.type->admits(*src)) {
        abort_with(std::string(errc::kInvalidParameterValue),
                   {{"param", *p.name}, {"value", src->to_text()}}, machine.name,
                   tname);
      }
      if (positional != nullptr) {
        frame.params[i] = std::move((*positional)[i]);
      } else {
        frame.params[i] = *src;
      }
    }

    // Resolve or create the target instance.
    if (ct.kind == TransitionKind::kCreate) {
      Resource& r = make_resource(machine);
      {
        // Wholesale copy of the precompiled defaults map — same contents
        // as inserting machine.states one by one, at one compact-rep copy.
        // Store write: pause the arena so the copy is heap-backed.
        ArenaPause pause;
        r.attrs = mp.attr_prototype;
      }
      if (mp.has_timers) timer_touched_.emplace_back(r.id, &machine);
      frame.self = &r;
    } else {
      Resource* r = store_.find(target);
      if (r == nullptr || r->type != machine.name) {
        abort_with(std::string(errc::kResourceNotFound),
                   {{"resource", machine.name}, {"id", target.empty() ? "(none)" : target}},
                   machine.name, tname);
      }
      frame.self = r;
    }
    // A call() in the body can create or destroy arbitrary resources, so
    // the tree-walk defensively re-resolves the target by a copied id
    // after the body runs. Compilation knows whether a call exists: plans
    // without one keep the resolved pointer and borrow the id in place
    // (destroy still copies — the id must outlive store_.destroy()).
    const bool self_stable =
        !ct.body_calls && ct.kind != TransitionKind::kDestroy;
    std::string self_id_storage;
    if (!self_stable) self_id_storage = frame.self->id;
    const std::string& self_id = self_stable ? frame.self->id : self_id_storage;

    // One compiled statement per source statement, in order, so this
    // index is the tree-walk's too.
    for (std::size_t i = 0; i < ct.body.size(); ++i) {
      stmt_ = static_cast<int>(i);
      exec_stmt(ct.body[i], frame);
    }
    stmt_ = -1;

    // Built-in hierarchy guards (paper §1).
    if (opts_.hierarchy_guards) {
      if (ct.kind == TransitionKind::kDestroy && store_.child_count(self_id) != 0) {
        abort_with(std::string(errc::kDependencyViolation),
                   {{"resource", machine.name}, {"id", self_id}}, machine.name,
                   tname, "", FailureSite::Origin::kFramework);
      }
      if (ct.kind == TransitionKind::kCreate && !machine.parent_type.empty()) {
        Resource* self = self_stable ? frame.self : store_.find(self_id);
        if (self != nullptr && self->parent_id.empty()) {
          abort_with(std::string(errc::kValidationError),
                     {{"param", "parent"}}, machine.name, tname,
                     strf("created ", machine.name,
                          " was never attached to its containment parent (",
                          machine.parent_type, ")"),
                     FailureSite::Origin::kFramework);
        }
      }
    }

    // Build the response payload directly in Value's compact form (rep
    // blocks come from the request arena when one is active; the caller
    // detaches the response). Create/describe emit the target's full
    // state; the precompiled sorted slot order makes every set() hit the
    // flat map's append fast path instead of a search + shift.
    Value data = Value::empty_map();
    Resource* self = self_stable ? frame.self : store_.find(self_id);
    bool full_state = (ct.kind == TransitionKind::kCreate ||
                       ct.kind == TransitionKind::kDescribe) &&
                      self != nullptr;
    if (full_state && mp.sorted_response) {
      for (std::uint32_t i = 0; i <= mp.response_order.size(); ++i) {
        if (i == mp.id_response_pos) data.set(id_key(), Value::ref(self_id));
        if (i == mp.response_order.size()) break;
        std::uint32_t slot = mp.response_order[i];
        const Value* v = state_value(*self, mp, slot);
        data.set(mp.slot_key(slot), v != nullptr ? *v : Value());
      }
    } else {
      data.set(id_key(), Value::ref(self_id));
      if (full_state) {
        for (std::uint32_t slot = 0; slot < mp.slot_count(); ++slot) {
          const Value* v = state_value(*self, mp, slot);
          data.set(mp.slot_key(slot), v != nullptr ? *v : Value());
        }
      }
    }
    for (auto& [k, v] : frame.reads) data.set(*k, std::move(v));
    if (ct.kind == TransitionKind::kDestroy) {
      // Journal the full before-image plus every child whose parent link
      // the promotion pass clears (destroy runs under kWriteAll, so the
      // scan is safe).
      for (const auto& child_id : store_.children_of(self_id)) {
        if (const Resource* child = store_.find(child_id)) {
          journal_.note_modified(*child);
        }
      }
      if (self != nullptr) journal_.note_destroyed(*self);
      store_.destroy(self_id);
      if (mp.has_timers) timer_touched_.emplace_back(self_id, &machine);
    }
    --depth_;
    stmt_ = caller_stmt;
    return ApiResponse::success(std::move(data));
  }

  void exec_body(const std::vector<CompiledStmt>& body, PlanFrame& frame) {
    for (const auto& s : body) exec_stmt(s, frame);
  }

  void exec_stmt(const CompiledStmt& s, PlanFrame& frame) {
    const std::string& mname = frame.ct->machine->name;
    const std::string& tname = frame.ct->src->name;
    switch (s.kind) {
      case spec::StmtKind::kWrite: {
        Value v = eval(s.expr, frame);
        if (s.state == nullptr) {
          abort_with(std::string(errc::kInternalError), {}, mname, tname,
                     strf("write to undeclared state '", *s.var, "'"));
        }
        if (!v.is_null() && !s.state->type.admits(v)) {
          abort_with(std::string(errc::kInvalidParameterValue),
                     {{"param", *s.var}, {"value", v.to_text()}}, mname, tname, "",
                     FailureSite::Origin::kWriteCheck, *s.var);
        }
        if (!s.skip_journal || depth_ != 1) journal_.note_modified(*frame.self);
        v.detach();  // store write: the value outlives the request
        frame.self->attrs.set(frame.mp->slot_key(s.slot), std::move(v));
        if (frame.mp->has_timers) {
          timer_touched_.emplace_back(frame.self->id, frame.ct->machine);
        }
        return;
      }
      case spec::StmtKind::kRead: {
        const Value* v = s.slot != kNoSlot
                             ? state_value(*frame.self, *frame.mp, s.slot)
                             : frame.self->attrs.get(*s.var);
        frame.reads.emplace_back(s.var, v != nullptr ? *v : Value());
        return;
      }
      case spec::StmtKind::kAssert: {
        if (!eval(s.expr, frame).truthy()) {
          // The {value}/{param} message fields name the first variable the
          // predicate mentions and its current value — the argument the
          // caller most likely got wrong. Text pieces were precomputed.
          std::string param = s.has_first_var ? s.first_var_name : *s.var;
          std::string value = s.has_first_var ? eval(s.first_var_prog, frame).to_text()
                                              : s.assert_text;
          abort_with(*s.error_code,
                     {{"resource", mname},
                      {"id", frame.self->id},
                      {"api", tname},
                      {"param", param},
                      {"value", value}},
                     mname, tname, *s.error_note, FailureSite::Origin::kAssert);
        }
        return;
      }
      case spec::StmtKind::kCall: {
        Value target = eval(s.expr, frame);
        if (!target.is_ref()) {
          abort_with(std::string(errc::kResourceNotFound),
                     {{"resource", "resource"}, {"id", target.to_text()}}, mname, tname);
        }
        Resource* callee_res = store_.find(target.as_str());
        if (callee_res == nullptr) {
          abort_with(std::string(errc::kResourceNotFound),
                     {{"resource", "resource"}, {"id", std::string(target.as_str())}},
                     mname, tname);
        }
        const MachinePlan* callee_mp = plan_.machine_for_type(callee_res->type);
        const CompiledTransition* callee_ct =
            callee_mp != nullptr ? s.callee_by_machine[callee_mp->index] : nullptr;
        if (callee_ct == nullptr) {
          abort_with(std::string(errc::kInternalError), {}, mname, tname,
                     strf("call to unknown transition '", *s.callee, "' on type '",
                          callee_res->type, "'"));
        }
        // Positional argument binding: evaluate into a flat vector the
        // callee binds by slot — no per-call arg map.
        std::size_t argc = std::min(s.args.size(), callee_ct->params.size());
        ValueVec args;
        args.reserve(argc);
        for (std::size_t i = 0; i < argc; ++i) args.push_back(eval(s.args[i], frame));
        // A failing callee throws its own Abort, which propagates.
        run_transition(*callee_mp, *callee_ct, nullptr, &args, callee_res->id);
        return;
      }
      case spec::StmtKind::kAttachParent: {
        Value parent = eval(s.expr, frame);
        const Resource* p = parent.is_ref() ? store_.find(parent.as_str()) : nullptr;
        if (p == nullptr || (!frame.ct->machine->parent_type.empty() &&
                             p->type != frame.ct->machine->parent_type)) {
          abort_with(std::string(errc::kResourceNotFound),
                     {{"resource", frame.ct->machine->parent_type},
                      {"id", parent.is_ref() ? std::string(parent.as_str())
                                             : parent.to_text()}},
                     mname, tname);
        }
        journal_.note_modified(*frame.self);
        if (mode_ == LockMode::kWriteLocal) {
          // Write-local implies a create body (classify_transition): self
          // is the freshly minted child, so no cycle walk is needed or
          // legal.
          store_.attach_created(frame.self->id, p->id);
        } else {
          store_.attach(frame.self->id, p->id);
        }
        return;
      }
      case spec::StmtKind::kIf: {
        if (eval(s.expr, frame).truthy()) {
          exec_body(s.then_body, frame);
        } else {
          exec_body(s.else_body, frame);
        }
        return;
      }
    }
  }

  // ----------------------------------------------------------- flat eval --

  Value eval(const ExprProgram& prog, PlanFrame& frame) {
    // Evaluations never nest (builtins do not re-enter eval, and call()
    // finishes each argument before the next), so one reused stack works.
    ValueVec& st = stack_;
    st.clear();
    const std::vector<Op>& ops = prog.ops;
    std::size_t pc = 0;
    while (pc < ops.size()) {
      const Op& op = ops[pc];
      switch (op.code) {
        case OpCode::kPushLiteral:
          st.push_back(*op.lit);
          break;
        case OpCode::kPushSelf:
          st.push_back(Value::ref(frame.self->id));
          break;
        case OpCode::kPushParam:
          st.push_back(frame.params[op.a]);
          break;
        case OpCode::kPushState: {
          const Value* v = state_value(*frame.self, *frame.mp, op.a);
          st.push_back(v != nullptr ? *v : Value());
          break;
        }
        case OpCode::kPushDynamic: {
          const Value* v = frame.self->attrs.get(*op.name);
          st.push_back(v != nullptr ? *v : Value());
          break;
        }
        case OpCode::kSelfField: {
          switch (static_cast<FieldKind>(op.a)) {
            case FieldKind::kId:
              st.push_back(Value::ref(frame.self->id));
              break;
            case FieldKind::kParent:
              st.push_back(frame.self->parent_id.empty()
                               ? Value()
                               : Value::ref(frame.self->parent_id));
              break;
            case FieldKind::kAttr: {
              const Value* v = op.b != kNoSlot
                                   ? state_value(*frame.self, *frame.mp, op.b)
                                   : frame.self->attrs.get(*op.name);
              st.push_back(v != nullptr ? *v : Value());
              break;
            }
          }
          break;
        }
        case OpCode::kField: {
          Value base = std::move(st.back());
          st.pop_back();
          if (!base.is_ref()) {
            st.push_back(Value());
            break;
          }
          if (static_cast<FieldKind>(op.a) == FieldKind::kId) {
            st.push_back(std::move(base));
            break;
          }
          const Resource* r = store_.find(base.as_str());
          if (r == nullptr) {
            st.push_back(Value());
            break;
          }
          if (static_cast<FieldKind>(op.a) == FieldKind::kParent) {
            st.push_back(r->parent_id.empty() ? Value() : Value::ref(r->parent_id));
            break;
          }
          const Value* v = r->attrs.get(*op.name);
          st.push_back(v != nullptr ? *v : Value());
          break;
        }
        case OpCode::kNot:
          st.back() = Value(!st.back().truthy());
          break;
        case OpCode::kNeg:
          st.back() = Value(-st.back().as_int());
          break;
        case OpCode::kEq:
        case OpCode::kNe:
        case OpCode::kLt:
        case OpCode::kLe:
        case OpCode::kGt:
        case OpCode::kGe:
        case OpCode::kAdd:
        case OpCode::kSub: {
          Value r = std::move(st.back());
          st.pop_back();
          Value& l = st.back();
          switch (op.code) {
            case OpCode::kEq: l = Value(l == r); break;
            case OpCode::kNe: l = Value(!(l == r)); break;
            case OpCode::kLt: l = Value(l < r); break;
            case OpCode::kLe: l = Value(l < r || l == r); break;
            case OpCode::kGt: l = Value(r < l); break;
            case OpCode::kGe: l = Value(r < l || l == r); break;
            case OpCode::kAdd: l = Value(l.as_int() + r.as_int()); break;
            case OpCode::kSub: l = Value(l.as_int() - r.as_int()); break;
            default: break;
          }
          break;
        }
        case OpCode::kAndProbe:
          if (!st.back().truthy()) {
            st.back() = Value(false);
            pc = op.a;
            continue;
          }
          st.pop_back();
          break;
        case OpCode::kOrProbe:
          if (st.back().truthy()) {
            st.back() = Value(true);
            pc = op.a;
            continue;
          }
          st.pop_back();
          break;
        case OpCode::kToBool:
          st.back() = Value(st.back().truthy());
          break;
        case OpCode::kBuiltin: {
          std::size_t base = st.size() - op.b;
          Value out = eval_builtin(static_cast<Builtin>(op.a), st, base, op.b, frame);
          st.resize(base);
          st.push_back(std::move(out));
          break;
        }
      }
      ++pc;
    }
    Value out = std::move(st.back());
    st.clear();
    return out;
  }

  Value eval_builtin(Builtin b, const ValueVec& st, std::size_t base,
                     std::size_t argc, PlanFrame& frame) {
    static const Value kNull;
    auto arg = [&](std::size_t i) -> const Value& {
      return i < argc ? st[base + i] : kNull;
    };
    switch (b) {
      case Builtin::kIsNull:
        return Value(arg(0).is_null());
      case Builtin::kLen: {
        const Value& v = arg(0);
        if (v.is_list()) return Value(static_cast<std::int64_t>(v.as_list().size()));
        if (v.is_str()) return Value(static_cast<std::int64_t>(v.as_str().size()));
        return Value(0);
      }
      case Builtin::kInList: {
        const Value& needle = arg(0);
        for (std::size_t i = 1; i < argc; ++i) {
          if (arg(i) == needle) return Value(true);
        }
        return Value(false);
      }
      case Builtin::kCidrValid:
        return Value(Cidr::parse(arg(0).as_str()).has_value());
      case Builtin::kCidrPrefixLen: {
        auto c = Cidr::parse(arg(0).as_str());
        return Value(c ? static_cast<std::int64_t>(c->prefix_len()) : -1);
      }
      case Builtin::kCidrWithin: {
        auto inner = Cidr::parse(arg(0).as_str());
        auto outer = Cidr::parse(arg(1).as_str());
        return Value(inner && outer && outer->contains(*inner));
      }
      case Builtin::kCidrOverlaps: {
        auto a = Cidr::parse(arg(0).as_str());
        auto c = Cidr::parse(arg(1).as_str());
        return Value(a && c && a->overlaps(*c));
      }
      case Builtin::kChildCount:
        return Value(static_cast<std::int64_t>(
            store_.child_count(frame.self->id, arg(0).as_str())));
      case Builtin::kSiblingCidrConflict: {
        auto mine = Cidr::parse(arg(0).as_str());
        if (!mine) return Value(false);
        // Optional second arg: which sibling attribute holds the block
        // (defaults to the AWS-style "cidr_block").
        std::string_view attr =
            argc > 1 ? arg(1).as_str() : std::string_view("cidr_block");
        for (const auto& sid : store_.siblings_of(frame.self->id)) {
          const Resource* sib = store_.find(sid);
          if (sib == nullptr) continue;
          const Value* block = sib->attrs.get(attr);
          if (block == nullptr) continue;
          auto theirs = Cidr::parse(block->as_str());
          if (theirs && mine->overlaps(*theirs)) return Value(true);
        }
        return Value(false);
      }
      case Builtin::kExists: {
        const Value& v = arg(0);
        if (!v.is_ref()) return Value(false);
        const Resource* r = store_.find(v.as_str());
        if (r == nullptr) return Value(false);
        if (argc > 1) return Value(r->type == arg(1).as_str());
        return Value(true);
      }
      case Builtin::kUnknown:
        break;
    }
    return Value();
  }

  const ExecutionPlan& plan_;
  const InterpreterOptions& opts_;
  ResourceStore& store_;
  FailureSite* where_;
  UndoJournal journal_;
  LockMode mode_ = LockMode::kWriteAll;
  std::string preminted_;  // create id minted before locking (kWriteLocal)
  int depth_ = 0;
  int stmt_ = -1;  // see the tree-walk's Execution::stmt_
  ValueVec stack_;  // reused expression value stack
  // Resources whose timer clauses need commit-time reconciliation, in
  // touch order (empty for machines without `after` clauses). Plain heap
  // vector: entries outlive no request, but ids must survive a destroy.
  std::vector<std::pair<std::string, const StateMachine*>> timer_touched_;
};

}  // namespace

ApiResponse run_plan(const ExecutionPlan& plan, const InterpreterOptions& opts,
                     ResourceStore& store, const ApiRequest& req, FailureSite* where) {
  return PlanExecution(plan, opts, store, where).run(req);
}

}  // namespace lce::interp::plan
