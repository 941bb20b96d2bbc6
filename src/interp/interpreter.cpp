#include "interp/interpreter.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/cidr.h"
#include "common/errors.h"
#include "common/strings.h"
#include "interp/exec_internal.h"
#include "interp/plan/exec.h"
#include "interp/timers.h"

namespace lce::interp {

namespace {

using internal::Abort;
using internal::UndoJournal;
using plan::LockMode;
using plan::LockPlan;
using spec::BinaryOp;
using spec::Expr;
using spec::ExprKind;
using spec::StateMachine;
using spec::Stmt;
using spec::StmtKind;
using spec::Transition;
using spec::TransitionKind;
using spec::UnaryOp;

// The tree-walking reference execution path. The compiled-plan path
// (interp/plan) must match it byte-for-byte; keep the two in lockstep
// when changing semantics here (the differential equivalence suite
// enforces it).
class Execution {
 public:
  /// `where` (may be null) receives the failure site; the caller has
  /// reset it.
  Execution(const spec::SpecSet& spec, const InterpreterOptions& opts, ResourceStore& store,
            FailureSite* where)
      : spec_(spec), opts_(opts), store_(store), where_(where) {}

  ApiResponse run(const ApiRequest& req) {
    auto [machine, transition] = spec_.find_api(req.api);
    if (machine == nullptr || transition == nullptr) {
      if (where_ != nullptr) {
        where_->origin = FailureSite::Origin::kDispatch;
        where_->error_code = std::string(errc::kInvalidAction);
      }
      return fail("", "", std::string(errc::kInvalidAction), {{"api", req.api}});
    }

    std::string target = !req.target.empty() ? req.target
                         : req.args.count("id") != 0
                             ? std::string(req.args.at("id").as_str())
                             : "";
    LockPlan lock = plan::classify_transition(*transition);
    mode_ = lock.mode;
    StripedRwLock::Guard guard;
    switch (lock.mode) {
      case LockMode::kReadShared:
        guard = store_.locks().lock_shared_all();
        break;
      case LockMode::kWriteAll:
        guard = store_.locks().lock_exclusive_all();
        break;
      case LockMode::kWriteLocal: {
        // Mint BEFORE locking so the new resource's shard joins the
        // ordered acquisition set (minting is internally synchronized
        // and journaled for rollback).
        if (transition->kind == TransitionKind::kCreate) {
          preminted_ = store_.mint_id(machine->id_prefix);
          journal_.note_minted(std::string(machine->id_prefix.empty()
                                               ? std::string_view("res")
                                               : std::string_view(machine->id_prefix)),
                               internal::id_suffix_counter(preminted_));
        }
        std::vector<std::size_t> shards;
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
      ApiResponse resp = run_transition(*machine, *transition, &req.args, nullptr, target);
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
  struct Frame {
    const StateMachine* machine;
    const Transition* transition;
    Resource* self;
    Value::Map params;
    Value::Map reads;  // read() outputs
  };

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
    if (machine.has_timers()) timer_touched_.emplace_back(r.id, &machine);
    return r;
  }

  /// Reconcile `after` clauses for every resource the (now committed)
  /// transition created, wrote or destroyed — in touch order, first touch
  /// wins — while the shard locks are still held. Aborted transitions
  /// never reach this, so rolled-back writes leave the timer set alone.
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

  /// `named` (top-level request args, bound by name) and `positional`
  /// (sub-call argument values, aligned to the callee's param order) are
  /// the two argument sources; exactly one is non-null. Positional values
  /// are moved out — call() no longer rebuilds a string-keyed arg map.
  ApiResponse run_transition(const StateMachine& machine, const Transition& transition,
                             const Value::Map* named, std::vector<Value>* positional,
                             const std::string& target) {
    // A sub-call returns here mid-statement: restore the caller's index so
    // a later abort in that statement still reports it.
    const int caller_stmt = stmt_;
    stmt_ = -1;
    if (++depth_ > internal::kMaxCallDepth) {
      abort_with(std::string(errc::kInternalError), {}, machine.name, transition.name,
                 "call depth limit exceeded", FailureSite::Origin::kFramework);
    }
    Frame frame;
    frame.machine = &machine;
    frame.transition = &transition;

    // Bind parameters.
    for (std::size_t i = 0; i < transition.params.size(); ++i) {
      const auto& p = transition.params[i];
      const Value* src = nullptr;
      if (named != nullptr) {
        auto it = named->find(p.name);
        if (it != named->end()) src = &it->second;
      } else if (positional != nullptr && i < positional->size()) {
        src = &(*positional)[i];
      }
      if (src == nullptr) {
        abort_with(std::string(errc::kMissingParameter), {{"param", p.name}}, machine.name,
                   transition.name);
      }
      if (!src->is_null() && !p.type.admits(*src)) {
        abort_with(std::string(errc::kInvalidParameterValue),
                   {{"param", p.name}, {"value", src->to_text()}}, machine.name,
                   transition.name);
      }
      frame.params[p.name] =
          positional != nullptr ? std::move((*positional)[i]) : *src;
    }

    // Resolve or create the target instance.
    if (transition.kind == TransitionKind::kCreate) {
      Resource& r = make_resource(machine);
      {
        // Store write: the initial-value copies must be heap-backed.
        ArenaPause pause;
        for (const auto& sv : machine.states) r.attrs.set(sv.name, sv.initial);
      }
      frame.self = &r;
    } else {
      Resource* r = store_.find(target);
      if (r == nullptr || r->type != machine.name) {
        abort_with(std::string(errc::kResourceNotFound),
                   {{"resource", machine.name}, {"id", target.empty() ? "(none)" : target}},
                   machine.name, transition.name);
      }
      frame.self = r;
    }
    std::string self_id = frame.self->id;

    for (std::size_t i = 0; i < transition.body.size(); ++i) {
      stmt_ = static_cast<int>(i);
      exec_stmt(*transition.body[i], frame);
    }
    stmt_ = -1;

    // Built-in hierarchy guards (paper §1).
    if (opts_.hierarchy_guards) {
      if (transition.kind == TransitionKind::kDestroy &&
          store_.child_count(self_id) != 0) {
        abort_with(std::string(errc::kDependencyViolation),
                   {{"resource", machine.name}, {"id", self_id}}, machine.name,
                   transition.name, "", FailureSite::Origin::kFramework);
      }
      if (transition.kind == TransitionKind::kCreate && !machine.parent_type.empty()) {
        Resource* self = store_.find(self_id);
        if (self != nullptr && self->parent_id.empty()) {
          abort_with(std::string(errc::kValidationError),
                     {{"param", "parent"}}, machine.name, transition.name,
                     strf("created ", machine.name,
                          " was never attached to its containment parent (",
                          machine.parent_type, ")"),
                     FailureSite::Origin::kFramework);
        }
      }
    }

    // Build the response payload.
    Value::Map data;
    data["id"] = Value::ref(self_id);
    Resource* self = store_.find(self_id);
    if (transition.kind == TransitionKind::kCreate ||
        transition.kind == TransitionKind::kDescribe) {
      if (self != nullptr) {
        for (const auto& sv : machine.states) {
          const Value* v = self->attrs.get(sv.name);
          data[sv.name] = v != nullptr ? *v : Value();
        }
      }
    }
    for (auto& [k, v] : frame.reads) data[k] = v;
    if (transition.kind == TransitionKind::kDestroy) {
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
      if (machine.has_timers()) timer_touched_.emplace_back(self_id, &machine);
    }
    --depth_;
    stmt_ = caller_stmt;
    return ApiResponse::success(Value(std::move(data)));
  }

  void exec_body(const spec::Body& body, Frame& frame) {
    for (const auto& s : body) exec_stmt(*s, frame);
  }

  void exec_stmt(const Stmt& s, Frame& frame) {
    const std::string& mname = frame.machine->name;
    const std::string& tname = frame.transition->name;
    switch (s.kind) {
      case StmtKind::kWrite: {
        const spec::StateVar* sv = frame.machine->find_state(s.var);
        Value v = eval(*s.expr, frame);
        if (sv == nullptr) {
          abort_with(std::string(errc::kInternalError), {}, mname, tname,
                     strf("write to undeclared state '", s.var, "'"));
        }
        if (!v.is_null() && !sv->type.admits(v)) {
          abort_with(std::string(errc::kInvalidParameterValue),
                     {{"param", s.var}, {"value", v.to_text()}}, mname, tname, "",
                     FailureSite::Origin::kWriteCheck, s.var);
        }
        journal_.note_modified(*frame.self);
        v.detach();  // store write: the value outlives the request
        frame.self->attrs.set(s.var, std::move(v));
        if (frame.machine->has_timers()) {
          timer_touched_.emplace_back(frame.self->id, frame.machine);
        }
        return;
      }
      case StmtKind::kRead: {
        const Value* v = frame.self->attrs.get(s.var);
        frame.reads[s.var] = v != nullptr ? *v : Value();
        return;
      }
      case StmtKind::kAssert: {
        if (!eval(*s.expr, frame).truthy()) {
          // The {value}/{param} message fields name the first variable the
          // predicate mentions and its current value — the argument the
          // caller most likely got wrong.
          const Expr* var = first_var(*s.expr);
          std::string param = var != nullptr ? var->name : s.var;
          std::string value =
              var != nullptr ? eval(*var, frame).to_text() : s.expr->to_text();
          abort_with(s.error_code,
                     {{"resource", mname},
                      {"id", frame.self->id},
                      {"api", tname},
                      {"param", param},
                      {"value", value}},
                     mname, tname, s.error_note, FailureSite::Origin::kAssert);
        }
        return;
      }
      case StmtKind::kCall: {
        Value target = eval(*s.expr, frame);
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
        const StateMachine* callee_m = spec_.find_machine(callee_res->type);
        const Transition* callee_t =
            callee_m != nullptr ? callee_m->find_transition(s.callee) : nullptr;
        if (callee_m == nullptr || callee_t == nullptr) {
          abort_with(std::string(errc::kInternalError), {}, mname, tname,
                     strf("call to unknown transition '", s.callee, "' on type '",
                          callee_res->type, "'"));
        }
        // Positional argument binding into a flat vector the callee binds
        // by index (no per-call arg map).
        std::size_t argc = std::min(s.args.size(), callee_t->params.size());
        std::vector<Value> args;
        args.reserve(argc);
        for (std::size_t i = 0; i < argc; ++i) args.push_back(eval(*s.args[i], frame));
        // A failing callee throws its own Abort, which propagates.
        run_transition(*callee_m, *callee_t, nullptr, &args, callee_res->id);
        return;
      }
      case StmtKind::kAttachParent: {
        Value parent = eval(*s.expr, frame);
        const Resource* p = parent.is_ref() ? store_.find(parent.as_str()) : nullptr;
        if (p == nullptr || (!frame.machine->parent_type.empty() &&
                             p->type != frame.machine->parent_type)) {
          abort_with(std::string(errc::kResourceNotFound),
                     {{"resource", frame.machine->parent_type},
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
      case StmtKind::kIf: {
        if (eval(*s.expr, frame).truthy()) {
          exec_body(s.then_body, frame);
        } else {
          exec_body(s.else_body, frame);
        }
        return;
      }
    }
  }

  /// First variable or self-field reference in a predicate (the argument
  /// most error messages should name), or nullptr.
  static const Expr* first_var(const Expr& e) {
    if (e.kind == ExprKind::kVar) return &e;
    if (e.kind == ExprKind::kField && e.kids[0]->kind == ExprKind::kSelf) return &e;
    for (const auto& k : e.kids) {
      if (const Expr* found = first_var(*k)) return found;
    }
    return nullptr;
  }

  // ------------------------------------------------------------- eval --
  Value eval(const Expr& e, Frame& frame) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kSelf:
        return Value::ref(frame.self->id);
      case ExprKind::kVar: {
        auto pit = frame.params.find(e.name);
        if (pit != frame.params.end()) return pit->second;
        if (const Value* av = frame.self->attrs.get(e.name)) return *av;
        // Unknown name evaluates to null (lenient, like the mock cloud).
        return Value();
      }
      case ExprKind::kField: {
        Value base = eval(*e.kids[0], frame);
        if (!base.is_ref()) return Value();
        if (e.name == "id") return base;
        const Resource* r = store_.find(base.as_str());
        if (r == nullptr) return Value();
        if (e.name == "parent") {
          return r->parent_id.empty() ? Value() : Value::ref(r->parent_id);
        }
        const Value* v = r->attrs.get(e.name);
        return v != nullptr ? *v : Value();
      }
      case ExprKind::kUnary: {
        Value v = eval(*e.kids[0], frame);
        if (e.unary_op == UnaryOp::kNot) return Value(!v.truthy());
        return Value(-v.as_int());
      }
      case ExprKind::kBinary:
        return eval_binary(e, frame);
      case ExprKind::kBuiltin:
        return eval_builtin(e, frame);
    }
    return Value();
  }

  Value eval_binary(const Expr& e, Frame& frame) {
    if (e.binary_op == BinaryOp::kAnd) {
      return Value(eval(*e.kids[0], frame).truthy() && eval(*e.kids[1], frame).truthy());
    }
    if (e.binary_op == BinaryOp::kOr) {
      return Value(eval(*e.kids[0], frame).truthy() || eval(*e.kids[1], frame).truthy());
    }
    Value l = eval(*e.kids[0], frame);
    Value r = eval(*e.kids[1], frame);
    switch (e.binary_op) {
      case BinaryOp::kEq: return Value(l == r);
      case BinaryOp::kNe: return Value(!(l == r));
      case BinaryOp::kLt: return Value(l < r);
      case BinaryOp::kLe: return Value(l < r || l == r);
      case BinaryOp::kGt: return Value(r < l);
      case BinaryOp::kGe: return Value(r < l || l == r);
      case BinaryOp::kAdd: return Value(l.as_int() + r.as_int());
      case BinaryOp::kSub: return Value(l.as_int() - r.as_int());
      default: return Value(false);
    }
  }

  Value eval_builtin(const Expr& e, Frame& frame) {
    auto arg = [&](std::size_t i) {
      return i < e.kids.size() ? eval(*e.kids[i], frame) : Value();
    };
    if (e.name == "is_null") return Value(arg(0).is_null());
    if (e.name == "len") {
      Value v = arg(0);
      if (v.is_list()) return Value(static_cast<std::int64_t>(v.as_list().size()));
      if (v.is_str()) return Value(static_cast<std::int64_t>(v.as_str().size()));
      return Value(0);
    }
    if (e.name == "in_list") {
      Value needle = arg(0);
      for (std::size_t i = 1; i < e.kids.size(); ++i) {
        if (arg(i) == needle) return Value(true);
      }
      return Value(false);
    }
    if (e.name == "cidr_valid") return Value(Cidr::parse(arg(0).as_str()).has_value());
    if (e.name == "cidr_prefix_len") {
      auto c = Cidr::parse(arg(0).as_str());
      return Value(c ? static_cast<std::int64_t>(c->prefix_len()) : -1);
    }
    if (e.name == "cidr_within") {
      auto inner = Cidr::parse(arg(0).as_str());
      auto outer = Cidr::parse(arg(1).as_str());
      return Value(inner && outer && outer->contains(*inner));
    }
    if (e.name == "cidr_overlaps") {
      auto a = Cidr::parse(arg(0).as_str());
      auto b = Cidr::parse(arg(1).as_str());
      return Value(a && b && a->overlaps(*b));
    }
    if (e.name == "child_count") {
      return Value(static_cast<std::int64_t>(
          store_.child_count(frame.self->id, arg(0).as_str())));
    }
    if (e.name == "sibling_cidr_conflict") {
      auto mine = Cidr::parse(arg(0).as_str());
      if (!mine) return Value(false);
      // Optional second arg: which sibling attribute holds the block
      // (defaults to the AWS-style "cidr_block").
      Value attr_arg = e.kids.size() > 1 ? arg(1) : Value();
      std::string_view attr =
          e.kids.size() > 1 ? attr_arg.as_str() : std::string_view("cidr_block");
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
    if (e.name == "exists") {
      Value v = arg(0);
      if (!v.is_ref()) return Value(false);
      const Resource* r = store_.find(v.as_str());
      if (r == nullptr) return Value(false);
      if (e.kids.size() > 1) {
        Value ty = arg(1);
        return Value(r->type == ty.as_str());
      }
      return Value(true);
    }
    return Value();
  }

  const spec::SpecSet& spec_;
  const InterpreterOptions& opts_;
  ResourceStore& store_;
  FailureSite* where_;
  UndoJournal journal_;
  LockMode mode_ = LockMode::kWriteAll;
  std::string preminted_;  // create id minted before locking (kWriteLocal)
  int depth_ = 0;
  // Top-level body index of the running transition's current statement;
  // -1 outside its body (see FailureSite::stmt).
  int stmt_ = -1;
  // Resources whose timer clauses need commit-time reconciliation, in
  // touch order (empty for machines without `after` clauses).
  std::vector<std::pair<std::string, const StateMachine*>> timer_touched_;
};

}  // namespace

Interpreter::Interpreter(spec::SpecSet spec, InterpreterOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts)) {
  rebuild_dispatch();
}

Interpreter::Interpreter(spec::SpecSet spec, InterpreterOptions opts,
                         std::shared_ptr<const plan::ExecutionPlan> shared_plan)
    : spec_(std::move(spec)), opts_(std::move(opts)), plan_(std::move(shared_plan)) {
  // Clone path: the plan (when any) is already built and immutable; only
  // the per-copy dispatch index needs (re)building.
  spec_.invalidate_api_index();
  spec_.ensure_api_index();
}

void Interpreter::rebuild_dispatch() {
  // The incoming spec may carry an index built before its last mutation
  // (repair edits specs in place); drop it rather than trust it.
  spec_.invalidate_api_index();
  spec_.ensure_api_index();
  plan_ = opts_.use_plan ? plan::ExecutionPlan::build(spec_) : nullptr;
}

ApiResponse Interpreter::invoke(const ApiRequest& req, FailureSite* where) {
  if (where != nullptr) *where = FailureSite{};
  if (req.api == timers::kAdvanceClockApi) return advance_clock(req, where);
  auto run = [&] {
    return plan_ != nullptr ? plan::run_plan(*plan_, opts_, store_, req, where)
                            : Execution(spec_, opts_, store_, where).run(req);
  };
  if (detail::current_arena() != nullptr) return run();
  // Request-scoped arena: every transient Value rep block this invoke
  // builds on this thread is bump-allocated and reclaimed in one reset.
  // Store writes detach at the write site; the response detaches here,
  // after which no arena-backed Value survives.
  static thread_local Arena arena;
  ApiResponse resp;
  {
    ArenaScope scope(arena);
    resp = run();
    resp.data.detach();
  }
  arena.reset();
  return resp;
}

ApiResponse Interpreter::advance_clock(const ApiRequest& req, FailureSite* where) {
  std::int64_t ticks = 1;
  auto it = req.args.find("ticks");
  if (it != req.args.end()) {
    if (!it->second.is_int() || it->second.as_int() < 1) {
      if (where != nullptr) {
        where->origin = FailureSite::Origin::kDispatch;
        where->error_code = std::string(errc::kInvalidParameterValue);
      }
      return ApiResponse::failure(
          std::string(errc::kInvalidParameterValue),
          strf("_AdvanceClock ticks must be a positive integer, got ",
               it->second.to_text()));
    }
    ticks = it->second.as_int();
  }
  std::uint64_t target = store_.timers().now() + static_cast<std::uint64_t>(ticks);
  std::int64_t fired = 0;
  std::int64_t failed = 0;
  // Due timers fire through the public invoke path one at a time, in
  // (deadline, seq) order, each under its own lock plan / undo journal —
  // a timer fire IS an ordinary transition. Timers armed by a fire with a
  // deadline inside the window fire in the same advance (delays are >= 1
  // tick, so the cascade provably terminates at `target`).
  while (auto ti = store_.timers().pop_due(target)) {
    ApiRequest fire;
    fire.api = ti->transition;
    fire.args["id"] = Value(ti->resource_id);
    ApiResponse resp = invoke(fire);
    if (resp.ok) {
      ++fired;
      // Popping disarmed the clause; if its variable still holds the
      // trigger value (the fire did not move it), re-arm so the clause
      // behaves periodically. Writes the fire made were already
      // reconciled inside the nested invoke. Only the fired resource is
      // read here, so one shard lock suffices (the TimerService itself is
      // a leaf lock) — a bulk advance fires thousands of these.
      auto guard =
          store_.locks().lock_shared_one(store_.shard_of(ti->resource_id));
      if (const Resource* r = store_.find(ti->resource_id)) {
        if (const spec::StateMachine* m = spec_.find_machine(r->type)) {
          timers::reconcile(store_, *m, *r);
        }
      }
    } else {
      ++failed;  // no retry: the clause stays disarmed (deterministic)
    }
  }
  Value::Map data;
  data["failed"] = Value(failed);
  data["fired"] = Value(fired);
  data["now"] = Value(static_cast<std::int64_t>(store_.timers().now()));
  return ApiResponse::success(Value(std::move(data)));
}

void Interpreter::reset() {
  auto guard = store_.locks().lock_exclusive_all();
  store_.clear();
}

Value Interpreter::snapshot() const {
  auto guard = store_.locks().lock_shared_all();
  return store_.snapshot();
}

bool Interpreter::supports(const std::string& api) const {
  if (api == timers::kAdvanceClockApi) return true;
  // Same index/dispatch table invoke() uses — supports() + invoke() pairs
  // (the stack's validate layer) cost two cheap lookups, not two scans.
  if (plan_ != nullptr) return plan_->find_api(api) != nullptr;
  return spec_.find_api(api).first != nullptr;
}

bool Interpreter::read_only_api(const std::string& api) const {
  if (plan_ != nullptr) {
    const plan::CompiledTransition* t = plan_->find_api(api);
    return t != nullptr && t->lock.mode == LockMode::kReadShared;
  }
  auto [machine, transition] = spec_.find_api(api);
  return transition != nullptr &&
         plan::classify_transition(*transition).mode == LockMode::kReadShared;
}

void Interpreter::replace_spec(spec::SpecSet spec) {
  spec_ = std::move(spec);
  // Rebuilding bumps the plan epoch, so every Resource slot cache built
  // against the old plan goes stale atomically with the swap.
  rebuild_dispatch();
}

std::unique_ptr<CloudBackend> Interpreter::clone() const {
  auto copy = std::unique_ptr<Interpreter>(
      new Interpreter(spec_.clone(), opts_, plan_));
  {
    auto guard = store_.locks().lock_shared_all();
    copy->store_ = store_.clone();
  }
  return copy;
}

}  // namespace lce::interp
