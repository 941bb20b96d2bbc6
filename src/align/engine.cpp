#include "align/engine.h"

#include <chrono>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>

#include "align/parallel.h"
#include "align/reuse.h"
#include "common/strings.h"

namespace lce::align {

std::size_t AlignmentReport::total_discrepancies() const {
  std::size_t n = 0;
  for (const auto& r : rounds) n += r.discrepancies;
  return n;
}

std::size_t AlignmentReport::total_api_calls() const {
  std::size_t n = 0;
  for (const auto& r : rounds) n += r.api_calls;
  return n;
}

std::string canonical_text(const AlignmentReport& report) {
  std::string out;
  for (std::size_t i = 0; i < report.rounds.size(); ++i) {
    const RoundStats& r = report.rounds[i];
    out += strf("round ", i + 1, ": traces=", r.traces, " calls=", r.api_calls,
                " discrepancies=", r.discrepancies, " repairs=", r.repairs, "\n");
  }
  for (const auto& a : report.repairs) out += strf("repair: ", a.to_text(), "\n");
  for (const auto& d : report.unrepaired) out += strf("unrepaired: ", d.to_text(), "\n");
  out += strf("converged=", report.converged ? "yes" : "no", "\n");
  for (const auto& line : report.log) out += line + "\n";
  return out;
}

AlignmentEngine::AlignmentEngine(interp::Interpreter& emulator, CloudBackend& cloud,
                                 AlignmentOptions opts)
    : emu_(emulator), cloud_(cloud), opts_(opts) {}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A later round that replays fewer traces than this does so serially: a
/// worker costs a backend-pair clone and a thread, about as much as
/// replaying a few dozen traces.
constexpr std::size_t kMinParallelReplay = 64;

/// What a trace that was clean in one round carries into the next.
struct CleanOutcome {
  bool have_probe_outcome = false;
  std::string probe_outcome;
};

/// Clean outcomes by reuse_key.
using CleanTable = std::unordered_map<std::string, CleanOutcome>;

}  // namespace

AlignmentReport AlignmentEngine::run() {
  AlignmentReport report;
  // Last round's clean outcomes, and the index in report.repairs where
  // last round's repairs begin.
  CleanTable clean;
  std::size_t last_round_repairs = 0;

  for (int round = 0; round < opts_.max_rounds; ++round) {
    RoundStats stats;
    // Regenerate from the CURRENT (possibly already repaired) spec, on the
    // differential pass's worker count (the corpus is identical for every
    // count). The generator indexes the spec, so it must not outlive this
    // statement: repairs below replace the spec.
    auto t0 = Clock::now();
    std::vector<GenTrace> traces =
        TraceGenerator(emu_.spec()).generate_all(opts_.workers);
    stats.gen_wall_ms = ms_since(t0);
    stats.traces = traces.size();
    for (const auto& g : traces) stats.api_calls += g.trace.calls.size();

    // Differential pass. A trace is replayed unless it was clean last round
    // and cannot run a transition that last round's repairs edited
    // (reuse.h); such a trace carries last round's clean outcome forward,
    // so a discrepancy always comes from a fresh replay. Round 1 has no
    // last round and replays everything. Replays are sharded across worker
    // threads over cloned backend pairs (serial when opts_.workers == 1 or
    // clones are unavailable). Outcomes land in corpus-order slots, so
    // everything merged below — discrepancy order and evidence content —
    // is identical to a serial run regardless of worker count.
    t0 = Clock::now();
    std::vector<TraceOutcome> outcomes(traces.size());
    std::vector<std::string> keys(traces.size());
    std::vector<std::size_t> replay;
    EditFootprint footprint(emu_.spec(),
                            std::span(report.repairs).subspan(last_round_repairs));
    for (std::size_t i = 0; i < traces.size(); ++i) {
      keys[i] = reuse_key(traces[i]);
      auto hit = clean.find(keys[i]);
      if (hit != clean.end() && !footprint.touches(traces[i].trace)) {
        outcomes[i].have_probe_outcome = hit->second.have_probe_outcome;
        outcomes[i].probe_outcome = hit->second.probe_outcome;
      } else {
        replay.push_back(i);
      }
    }
    clean = CleanTable();  // freed before anything replays
    int workers = round > 0 && replay.size() < kMinParallelReplay ? 1 : opts_.workers;
    ParallelExecutor executor(cloud_, emu_, workers, opts_.collect_metrics);
    executor.execute(traces, replay, outcomes);
    stats.diff_wall_ms = ms_since(t0);
    stats.traces_replayed = replay.size();
    for (std::size_t i : replay) stats.calls_replayed += traces[i].trace.calls.size();
    stats.workers = executor.effective_workers();
    stats.metrics = executor.metrics();
    stats.traces_per_sec = stats.diff_wall_ms > 0
                               ? static_cast<double>(replay.size()) * 1000.0 /
                                     stats.diff_wall_ms
                               : 0.0;

    std::vector<Discrepancy> found;
    // Evidence for enum-precondition inference, indexed by
    // (machine, transition) site, then by attr: per-member cloud outcome.
    // Attrs iterate in name order, the order repairs are applied in.
    struct EvidenceRow {
      StateEvidence evidence;
      bool checked = false;
    };
    std::map<std::pair<std::string, std::string>, std::map<std::string, EvidenceRow>>
        evidence;

    for (std::size_t i = 0; i < traces.size(); ++i) {
      const GenTrace& g = traces[i];
      TraceOutcome& o = outcomes[i];
      // Record sweep outcomes (aligned or not) for predicate inference.
      if (g.cls.kind == ClassKind::kStateSweep && o.have_probe_outcome) {
        evidence[{g.cls.machine, g.cls.transition}][g.cls.sweep_attr]
            .evidence.outcome_by_member[g.cls.sweep_value] = o.probe_outcome;
      }
      // The happy path is the evidence row for every swept attribute's
      // INITIAL member (sweeps skip it).
      if (g.cls.kind == ClassKind::kHappyPath && o.have_probe_outcome) {
        const spec::StateMachine* m = emu_.spec().find_machine(g.cls.machine);
        if (m != nullptr) {
          auto& rows = evidence[{g.cls.machine, g.cls.transition}];
          for (const auto& sv : m->states) {
            std::string member;
            if (sv.type.kind == spec::TypeKind::kEnum && sv.initial.is_str()) {
              member = sv.initial.as_str();
            } else if (sv.type.kind == spec::TypeKind::kBool && sv.initial.is_bool()) {
              member = sv.initial.as_bool() ? "true" : "false";
            } else {
              continue;
            }
            rows[sv.name].evidence.outcome_by_member[member] = o.probe_outcome;
          }
        }
      }
      // The moved-from pointer stays set: the table below skips this trace.
      if (o.discrepancy) found.push_back(std::move(*o.discrepancy));
    }
    stats.discrepancies = found.size();
    report.log.push_back(strf("round ", round + 1, ": ", traces.size(), " traces, ",
                              stats.api_calls, " calls, ", found.size(), " discrepancies"));

    if (found.empty()) {
      report.converged = true;
      report.rounds.push_back(stats);
      break;
    }
    if (!opts_.repair) {
      report.rounds.push_back(stats);
      report.unrepaired = std::move(found);
      break;
    }

    last_round_repairs = report.repairs.size();
    t0 = Clock::now();
    Repairer repairer(emu_, cloud_);
    auto still_diverges = [&](const Discrepancy& d) {
      GenTrace probe;
      probe.trace = d.trace;
      probe.cls = d.cls;
      return diff_trace(cloud_, emu_, probe);
    };
    std::size_t repaired = 0;
    auto record = [&](RepairAction action) {
      report.log.push_back("  repair: " + action.to_text());
      report.repairs.push_back(std::move(action));
      ++repaired;
    };

    // First: inferred state checks (aggregated evidence), which subsume
    // many individual sweep discrepancies at once. The first qualifying
    // discrepancy at a site claims every evidence row there; a happy-path
    // one adds the cloud's failure for each attr's initial member. All of
    // them land in one spec edit and one plan compile.
    std::vector<StateCheck> checks;
    for (const auto& d : found) {
      if (d.kind != DivergenceKind::kCloudErrEmuOk) continue;
      if (d.cls.kind != ClassKind::kStateSweep && d.cls.kind != ClassKind::kHappyPath) {
        continue;
      }
      auto site = evidence.find({d.cls.machine, d.cls.transition});
      if (site == evidence.end()) continue;
      const spec::StateMachine* m = d.cls.kind == ClassKind::kHappyPath
                                        ? emu_.spec().find_machine(d.cls.machine)
                                        : nullptr;
      for (auto& [attr, row] : site->second) {
        if (row.checked) continue;
        row.checked = true;
        StateCheck check{d.cls.machine, d.cls.transition, attr, row.evidence};
        // Happy path exercises the initial member (string or bool typed).
        const spec::StateVar* sv = m != nullptr ? m->find_state(attr) : nullptr;
        if (sv != nullptr && sv->initial.is_str()) {
          check.evidence.outcome_by_member[std::string(sv->initial.as_str())] =
              d.cloud.code;
        } else if (sv != nullptr && sv->initial.is_bool()) {
          check.evidence.outcome_by_member[sv->initial.as_bool() ? "true" : "false"] =
              d.cloud.code;
        }
        checks.push_back(std::move(check));
      }
    }
    for (auto& action : repairer.repair_state_checks(checks)) record(std::move(action));

    // Then: per-discrepancy repairs, re-verified against the evolving spec.
    for (auto& d : found) {
      auto still = still_diverges(d);
      if (!still) continue;  // an earlier repair already fixed it
      Discrepancy current = std::move(*still);
      if (opts_.shrink) current = shrink(cloud_, emu_, std::move(current));
      auto action = repairer.repair(current);
      if (action) {
        record(std::move(*action));
      } else {
        report.unrepaired.push_back(std::move(current));
      }
    }
    stats.repairs = repaired;
    if (repaired != 0) {
      report.unrepaired.clear();  // retry next round against the new spec
      if (round + 1 == opts_.max_rounds) {
        // No round is left to retry in: report what still diverges
        // against the final spec.
        for (const auto& d : found) {
          if (auto still = still_diverges(d)) report.unrepaired.push_back(std::move(*still));
        }
      }
    }
    stats.repair_wall_ms = ms_since(t0);
    if (repaired != 0 && round + 1 < opts_.max_rounds) {
      // The next round reuses this round's clean outcomes: keep each one's
      // key and probe outcome, nothing more.
      t0 = Clock::now();
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (outcomes[i].discrepancy) continue;
        clean.try_emplace(std::move(keys[i]),
                          CleanOutcome{outcomes[i].have_probe_outcome,
                                       std::move(outcomes[i].probe_outcome)});
      }
      stats.diff_wall_ms += ms_since(t0);
    }
    report.rounds.push_back(stats);
    if (repaired == 0) break;  // stuck: avoid spinning
  }
  return report;
}

}  // namespace lce::align
