#include "align/reuse.h"

#include <cstdint>
#include <string_view>
#include <vector>

#include "interp/timers.h"

namespace lce::align {

namespace {

/// Callee names of every `call` statement in `body`, if arms included.
void collect_callees(const spec::Body& body, std::vector<std::string_view>& out) {
  for (const auto& s : body) {
    if (s->kind == spec::StmtKind::kCall) out.push_back(s->callee);
    collect_callees(s->then_body, out);
    collect_callees(s->else_body, out);
  }
}

/// LEB128: seven bits a byte, the high bit set on every byte but the last.
void put_len(std::string& out, std::size_t n) {
  do {
    auto low = static_cast<unsigned char>(n & 0x7f);
    n >>= 7;
    out.push_back(static_cast<char>(n != 0 ? low | 0x80 : low));
  } while (n != 0);
}

void put_str(std::string& out, std::string_view s) {
  put_len(out, s.size());
  out.append(s);
}

void put_value(std::string& out, const Value& v) {
  out.push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      return;
    case ValueKind::kBool:
      out.push_back(v.as_bool() ? '\1' : '\0');
      return;
    case ValueKind::kInt: {
      auto u = static_cast<std::uint64_t>(v.as_int());
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(u >> (8 * i)));
      return;
    }
    case ValueKind::kStr:
    case ValueKind::kRef:
      put_str(out, v.as_str());
      return;
    case ValueKind::kList:
      put_len(out, v.as_list().size());
      for (const Value& e : v.as_list()) put_value(out, e);
      return;
    case ValueKind::kMap:
      put_len(out, v.as_map().size());
      for (const auto& [k, e] : v.as_map()) {
        put_str(out, k);
        put_value(out, e);
      }
      return;
  }
}

}  // namespace

EditFootprint::EditFootprint(const spec::SpecSet& spec,
                             std::span<const RepairAction> edits)
    : any_edit_(!edits.empty()) {
  // reaches[m][t]: transition t of machine m was edited or can call one
  // that was.
  const auto& machines = spec.machines;
  std::vector<std::vector<bool>> reaches(machines.size());
  std::vector<std::vector<std::vector<std::string_view>>> callees(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const auto& transitions = machines[m].transitions;
    reaches[m].resize(transitions.size());
    callees[m].resize(transitions.size());
    for (std::size_t t = 0; t < transitions.size(); ++t) {
      collect_callees(transitions[t].body, callees[m][t]);
      for (const RepairAction& a : edits) {
        if (a.machine == machines[m].name &&
            (a.transition.empty() || a.transition == transitions[t].name)) {
          reaches[m][t] = true;
        }
      }
    }
  }
  // Close over calls: a name is dirty once any transition so named reaches
  // an edit, and a transition calling a dirty name reaches one too.
  std::unordered_set<std::string_view> dirty_names;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      for (std::size_t t = 0; t < machines[m].transitions.size(); ++t) {
        if (!reaches[m][t]) {
          for (std::string_view callee : callees[m][t]) {
            if (dirty_names.count(callee) != 0) {
              reaches[m][t] = true;
              break;
            }
          }
        }
        if (reaches[m][t] && dirty_names.insert(machines[m].transitions[t].name).second) {
          changed = true;
        }
      }
    }
  }
  // An API is dirty when the transition it dispatches to reaches an edit.
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (std::size_t t = 0; t < machines[m].transitions.size(); ++t) {
      const spec::Transition& tr = machines[m].transitions[t];
      if (reaches[m][t] && spec.find_api(tr.name).second == &tr) {
        dirty_apis_.insert(tr.name);
      }
    }
  }
}

bool EditFootprint::touches(const Trace& trace) const {
  for (const ApiRequest& call : trace.calls) {
    if (call.api == interp::timers::kAdvanceClockApi) {
      if (any_edit_) return true;
    } else if (dirty_apis_.count(call.api) != 0) {
      return true;
    }
  }
  return false;
}

std::string reuse_key(const GenTrace& g) {
  // Encoded into a reused buffer, so the key costs one exact allocation.
  static thread_local std::string out;
  out.clear();
  out.push_back(static_cast<char>(g.cls.kind));
  put_len(out, g.probe_call);
  put_len(out, g.trace.calls.size());
  for (const ApiRequest& call : g.trace.calls) {
    put_str(out, call.api);
    put_str(out, call.target);
    put_len(out, call.args.size());
    for (const auto& [name, v] : call.args) {
      put_str(out, name);
      put_value(out, v);
    }
  }
  return out;
}

}  // namespace lce::align
