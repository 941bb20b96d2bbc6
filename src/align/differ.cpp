#include "align/differ.h"

#include <set>

#include "common/strings.h"

namespace lce::align {

std::string to_string(DivergenceKind k) {
  switch (k) {
    case DivergenceKind::kCloudErrEmuOk: return "cloud-err-emu-ok";
    case DivergenceKind::kCloudOkEmuErr: return "cloud-ok-emu-err";
    case DivergenceKind::kErrorCodeMismatch: return "error-code-mismatch";
    case DivergenceKind::kPayloadMismatch: return "payload-mismatch";
  }
  return "?";
}

std::string Discrepancy::to_text() const {
  std::string out =
      strf("[", to_string(kind), "] ", trace.label, " call #", call_index, " ",
           call_index < trace.calls.size() ? trace.calls[call_index].api : "?", "\n");
  out += strf("  cloud:    ", cloud.to_text(), "\n");
  out += strf("  emulator: ", emulator.to_text());
  return out;
}

namespace {

DivergenceKind classify(const ApiResponse& cloud, const ApiResponse& emu) {
  if (!cloud.ok && emu.ok) return DivergenceKind::kCloudErrEmuOk;
  if (cloud.ok && !emu.ok) return DivergenceKind::kCloudOkEmuErr;
  if (!cloud.ok && !emu.ok) return DivergenceKind::kErrorCodeMismatch;
  return DivergenceKind::kPayloadMismatch;
}

/// Call indices referenced by "$k.field" placeholders in a value tree.
void collect_deps(const Value& v, std::set<std::size_t>& deps) {
  if (v.is_str() || v.is_ref()) {
    std::string_view s = v.as_str();
    if (s.size() > 2 && s[0] == '$') {
      std::size_t dot = s.find('.');
      std::int64_t k = -1;
      if (dot != std::string_view::npos &&
          parse_int(s.substr(1, dot - 1), k) && k >= 0) {
        deps.insert(static_cast<std::size_t>(k));
      }
    }
    return;
  }
  if (v.is_list()) {
    for (const auto& e : v.as_list()) collect_deps(e, deps);
  }
  if (v.is_map()) {
    for (const auto& [_, e] : v.as_map()) collect_deps(e, deps);
  }
}

std::set<std::size_t> call_deps(const ApiRequest& req) {
  std::set<std::size_t> deps;
  for (const auto& [_, v] : req.args) collect_deps(v, deps);
  collect_deps(Value(req.target), deps);
  return deps;
}

/// Remove call `victim` from a trace, remapping all "$k" placeholders.
/// Returns nullopt when any surviving call depends on the victim.
std::optional<Trace> remove_call(const Trace& t, std::size_t victim) {
  for (std::size_t i = victim + 1; i < t.calls.size(); ++i) {
    if (call_deps(t.calls[i]).count(victim) != 0) return std::nullopt;
  }
  auto remap_value = [&](const Value& v) -> Value {
    if (!(v.is_str() || v.is_ref())) return v;
    std::string_view s = v.as_str();
    if (s.size() <= 2 || s[0] != '$') return v;
    std::size_t dot = s.find('.');
    std::int64_t k = -1;
    if (dot == std::string_view::npos || !parse_int(s.substr(1, dot - 1), k) || k < 0) {
      return v;
    }
    std::size_t idx = static_cast<std::size_t>(k);
    if (idx > victim) --idx;
    std::string out = strf("$", idx, s.substr(dot));
    return v.is_ref() ? Value::ref(out) : Value(out);
  };
  Trace shrunk;
  shrunk.label = t.label + "/shrunk";
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    if (i == victim) continue;
    ApiRequest req = t.calls[i];
    for (auto& [_, v] : req.args) {
      if (v.is_list()) {
        Value::List items = v.as_list();
        for (auto& e : items) e = remap_value(e);
        v = Value(std::move(items));
      } else {
        v = remap_value(v);
      }
    }
    req.target = std::string(remap_value(Value(req.target)).as_str());
    shrunk.calls.push_back(std::move(req));
  }
  return shrunk;
}

}  // namespace

std::optional<Discrepancy> diff_responses(const GenTrace& gen,
                                          const std::vector<ApiResponse>& cloud,
                                          const std::vector<ApiResponse>& emulator) {
  for (std::size_t i = 0; i < gen.trace.calls.size(); ++i) {
    if (cloud[i].aligned_with(emulator[i])) continue;
    Discrepancy d;
    d.trace = gen.trace;
    d.call_index = i;
    d.cloud = cloud[i];
    d.emulator = emulator[i];
    d.kind = classify(cloud[i], emulator[i]);
    d.cls = gen.cls;
    return d;
  }
  return std::nullopt;
}

std::optional<Discrepancy> diff_trace(CloudBackend& cloud, CloudBackend& emulator,
                                      const GenTrace& gen) {
  auto cloud_resp = run_trace(cloud, gen.trace);
  auto emu_resp = run_trace(emulator, gen.trace);
  return diff_responses(gen, cloud_resp, emu_resp);
}

Discrepancy shrink(CloudBackend& cloud, CloudBackend& emulator, Discrepancy d) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Drop the tail beyond the divergence first.
    if (d.call_index + 1 < d.trace.calls.size()) {
      d.trace.calls.resize(d.call_index + 1);
    }
    for (std::size_t victim = 0; victim + 1 < d.trace.calls.size(); ++victim) {
      auto candidate = remove_call(d.trace, victim);
      if (!candidate) continue;
      GenTrace probe;
      probe.trace = *candidate;
      probe.cls = d.cls;
      auto again = diff_trace(cloud, emulator, probe);
      if (again && again->kind == d.kind &&
          again->call_index == d.call_index - 1 &&
          again->trace.calls[again->call_index].api ==
              d.trace.calls[d.call_index].api) {
        d.trace = std::move(again->trace);
        d.call_index = again->call_index;
        d.cloud = again->cloud;
        d.emulator = again->emulator;
        progress = true;
        break;
      }
    }
  }
  return d;
}

}  // namespace lce::align
