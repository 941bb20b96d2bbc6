// Outcome reuse across alignment rounds (src/align/reuse.h): a later round
// replays only the traces that are new, diverged, or can run a transition
// that last round's repairs edited. These suites pin the three things that
// rule rests on: an untouched trace replays alike before and after the
// edits (soundness), each repair edits only what its action names (the
// repair contract), and replaying a subset gives the full pass's outcome
// in every replayed slot at any worker count.
#include "align/reuse.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "align/engine.h"
#include "align/parallel.h"
#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "spec/parser.h"
#include "spec/printer.h"

namespace lce::align {
namespace {

struct Config {
  const char* name;
  double defect_rate;
  std::uint64_t defect_seed;
  double noise;
  std::uint64_t synth_seed;
};

// learn-align, and AWS with defects and noise at 0.25, which ends with
// unrepaired divergences after 91 repairs.
const Config kConfigs[] = {
    {"learn-align", 0.12, 31337, 0.10, 1},
    {"aws-defects25-noise25", 0.25, 3, 0.25, 1},
};

core::LearnedEmulator emulator_for(const Config& c) {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(c.defect_seed);
  docs::inject_defects(defective, c.defect_rate, rng);
  core::PipelineOptions popts;
  popts.synthesis.noise_rate = c.noise;
  popts.synthesis.seed = c.synth_seed;
  return core::LearnedEmulator::from_docs(docs::render_corpus(defective), popts);
}

std::string response_text(const ApiResponse& r) {
  return strf(r.ok ? "ok " : "err ", r.code, " ", r.message, " ", r.data.to_text());
}

TEST(FootprintSoundness, UntouchedTracesReplayAlikeBeforeAndAfterAlignment) {
  for (const Config& c : kConfigs) {
    SCOPED_TRACE(c.name);
    auto emu = emulator_for(c);
    std::unique_ptr<CloudBackend> before = emu.backend().clone();
    std::vector<GenTrace> traces = TraceGenerator(emu.backend().spec()).generate_all();
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    AlignmentOptions opts;
    opts.workers = 1;
    AlignmentReport report = emu.align_against(cloud, opts);
    ASSERT_FALSE(report.repairs.empty());

    interp::Interpreter& after = emu.backend();
    EditFootprint footprint(after.spec(), report.repairs);
    std::size_t untouched = 0;
    for (const GenTrace& g : traces) {
      if (footprint.touches(g.trace)) continue;
      ++untouched;
      std::vector<ApiResponse> want = run_trace(*before, g.trace);
      std::vector<ApiResponse> got = run_trace(after, g.trace);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(want[i].ok == got[i].ok && want[i].code == got[i].code &&
                    want[i].message == got[i].message && want[i].data == got[i].data)
            << g.trace.label << " call " << i << "\n  before: " << response_text(want[i])
            << "\n  after:  " << response_text(got[i]);
      }
    }
    EXPECT_GT(untouched, 0u);
    EXPECT_LT(untouched, traces.size());
  }
}

/// What a repair may edit: per machine, its declarations and each
/// transition's printed text.
struct MachineShape {
  std::string header;  // name, service, id prefix, containment parent
  std::vector<spec::StateVar> states;
  std::map<std::string, std::string> transitions;  // name -> printed text
};

std::map<std::string, MachineShape> shape_of(const spec::SpecSet& spec) {
  std::map<std::string, MachineShape> out;
  for (const auto& m : spec.machines) {
    MachineShape& s = out[m.name];
    s.header = strf(m.name, "|", m.service, "|", m.id_prefix, "|", m.parent_type);
    s.states = m.states;
    for (const auto& t : m.transitions) s.transitions[t.name] = spec::print_transition(t);
  }
  return out;
}

bool same_states(const std::vector<spec::StateVar>& a, const std::vector<spec::StateVar>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || !(a[i].type == b[i].type) ||
        !(a[i].initial == b[i].initial) || a[i].timers.size() != b[i].timers.size()) {
      return false;
    }
  }
  return true;
}

/// Everything `actions` did not name is unchanged from `before` to `after`:
/// a named transition may change, and an action with an empty transition
/// may change its whole machine.
void expect_only_named_edits(const std::map<std::string, MachineShape>& before,
                             const std::map<std::string, MachineShape>& after,
                             const std::vector<RepairAction>& actions) {
  std::set<std::string> whole_machines;
  std::set<std::pair<std::string, std::string>> transitions;
  std::string named;
  for (const RepairAction& a : actions) {
    named += "\n  " + a.to_text();
    if (a.transition.empty()) {
      whole_machines.insert(a.machine);
    } else {
      transitions.emplace(a.machine, a.transition);
    }
  }
  ASSERT_EQ(before.size(), after.size()) << named;
  for (const auto& [name, was] : before) {
    auto it = after.find(name);
    ASSERT_NE(it, after.end()) << name << named;
    const MachineShape& now = it->second;
    if (whole_machines.count(name) != 0) continue;
    EXPECT_EQ(was.header, now.header) << named;
    EXPECT_TRUE(same_states(was.states, now.states)) << name << " declarations" << named;
    ASSERT_EQ(was.transitions.size(), now.transitions.size()) << name << named;
    for (const auto& [tname, text] : was.transitions) {
      if (transitions.count({name, tname}) != 0) continue;
      auto t = now.transitions.find(tname);
      ASSERT_NE(t, now.transitions.end()) << name << "::" << tname << named;
      EXPECT_EQ(text, t->second) << name << "::" << tname << named;
    }
  }
}

TEST(RepairContract, EachRepairEditsOnlyWhatItsActionNames) {
  for (const Config& c : kConfigs) {
    SCOPED_TRACE(c.name);
    auto emu = emulator_for(c);
    interp::Interpreter& it = emu.backend();
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    std::vector<GenTrace> traces = TraceGenerator(it.spec()).generate_all();
    std::vector<TraceOutcome> outcomes = ParallelExecutor(cloud, it, 1).execute(traces);
    Repairer repairer(it, cloud);
    std::set<RepairAction::Kind> kinds;
    std::size_t repairs = 0;

    // State checks from sweep evidence: every swept attribute at a site
    // where some sweep diverges with a cloud-only failure.
    std::map<std::tuple<std::string, std::string, std::string>, StateEvidence> evidence;
    std::set<std::pair<std::string, std::string>> failing_sites;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const SymbolicClass& cls = traces[i].cls;
      if (cls.kind != ClassKind::kStateSweep || !outcomes[i].have_probe_outcome) continue;
      evidence[{cls.machine, cls.transition, cls.sweep_attr}]
          .outcome_by_member[cls.sweep_value] = outcomes[i].probe_outcome;
      if (outcomes[i].discrepancy &&
          outcomes[i].discrepancy->kind == DivergenceKind::kCloudErrEmuOk) {
        failing_sites.emplace(cls.machine, cls.transition);
      }
    }
    std::vector<StateCheck> checks;
    for (const auto& [site, ev] : evidence) {
      const auto& [machine, transition, attr] = site;
      if (failing_sites.count({machine, transition}) != 0) {
        checks.push_back({machine, transition, attr, ev});
      }
    }
    auto shape = shape_of(it.spec());
    std::vector<RepairAction> checked = repairer.repair_state_checks(checks);
    expect_only_named_edits(shape, shape_of(it.spec()), checked);
    for (const auto& a : checked) kinds.insert(a.kind);
    repairs += checked.size();

    // Then each discrepancy on its own, as the engine repairs them.
    for (const TraceOutcome& o : outcomes) {
      if (!o.discrepancy) continue;
      GenTrace probe;
      probe.trace = o.discrepancy->trace;
      probe.cls = o.discrepancy->cls;
      auto still = diff_trace(cloud, it, probe);
      if (!still) continue;
      Discrepancy current = shrink(cloud, it, std::move(*still));
      shape = shape_of(it.spec());
      auto action = repairer.repair(current);
      if (!action) continue;
      expect_only_named_edits(shape, shape_of(it.spec()), {*action});
      kinds.insert(action->kind);
      ++repairs;
    }
    EXPECT_GT(repairs, 20u);
    EXPECT_GE(kinds.size(), 4u);
  }
}

TEST(ReuseKey, EqualExactlyWhenCallsProbeAndKindAre) {
  GenTrace g;
  g.trace.label = "a";
  g.trace.add("CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
  g.trace.add("DescribeVpc", {{"id", Value("$0.id")}});
  g.probe_call = 1;
  g.cls.kind = ClassKind::kHappyPath;
  const std::string key = reuse_key(g);

  // The label and the rest of the class do not shape a clean outcome.
  GenTrace relabelled = g;
  relabelled.trace.label = "b";
  relabelled.cls.machine = "Other";
  relabelled.cls.sweep_value = "x";
  EXPECT_EQ(reuse_key(relabelled), key);

  std::vector<GenTrace> differ(7, g);
  differ[0].probe_call = 0;
  differ[1].cls.kind = ClassKind::kStateSweep;
  differ[2].trace.calls[1].args["id"] = Value::ref("$0.id");  // ref, not str
  differ[3].trace.calls[1].target = "vpc-1";
  differ[4].trace.calls[0].args["cidr_block"] = Value(Value::List{Value("10.0.0.0/16")});
  // Names and values that a plain rendering would run together.
  differ[5].trace.calls[0].args = {{"cidr", Value("_block10.0.0.0/16")}};
  differ[6].trace.calls[1].api = "DescribeVpc\x01";
  std::set<std::string> keys = {key};
  for (const GenTrace& d : differ) EXPECT_TRUE(keys.insert(reuse_key(d)).second);
}

TEST(ReuseFootprint, FollowsCallsAndDirtiesWholeMachinesForStateRepairs) {
  spec::ParseError err;
  auto spec = spec::parse_spec(R"SPEC(
sm Box {
  states { level: int = 1; peer: ref Box; }
  transitions {
    create CreateBox() { }
    modify SetLevel(v: int) { write(level, v); }
    modify Poke(v: int) {
      if (v > 0) { call(peer, SetLevel, v); }
    }
    describe DescribeBox() { }
  }
}
sm Tag {
  states { key: str; }
  transitions {
    create CreateTag(k: str) { write(key, k); }
  }
}
)SPEC",
                               &err);
  ASSERT_TRUE(spec.has_value()) << err.to_text();
  spec->ensure_api_index();
  auto touches = [&](const std::vector<RepairAction>& edits, const std::string& api) {
    Trace t;
    t.add(api);
    return EditFootprint(*spec, edits).touches(t);
  };
  using K = RepairAction::Kind;
  const std::vector<RepairAction> set_level = {{K::kDropAssert, "Box", "SetLevel", ""}};
  EXPECT_TRUE(touches(set_level, "SetLevel"));
  EXPECT_TRUE(touches(set_level, "Poke"));  // calls SetLevel inside an if arm
  EXPECT_FALSE(touches(set_level, "CreateBox"));
  EXPECT_FALSE(touches(set_level, "CreateTag"));
  EXPECT_FALSE(touches(set_level, "NoSuchApi"));
  EXPECT_TRUE(touches(set_level, "_AdvanceClock"));
  EXPECT_FALSE(touches({}, "_AdvanceClock"));

  const std::vector<RepairAction> initial = {{K::kPatchInitial, "Box", "", ""}};
  for (const char* api : {"CreateBox", "SetLevel", "Poke", "DescribeBox"}) {
    EXPECT_TRUE(touches(initial, api)) << api;
  }
  EXPECT_FALSE(touches(initial, "CreateTag"));
}

TEST(ReuseFootprint, AnEditToATimerFiredTransitionTouchesEveryClockAdvance) {
  // FinishLaunch runs only when the clock fires it: no call names it, yet
  // editing it changes what the trace reads back.
  const std::string before = R"SPEC(
sm Instance {
  states { status: enum(PENDING, RUNNING) = "PENDING" after 3 -> FinishLaunch; }
  transitions {
    create RunInstance() { }
    modify FinishLaunch() { write(status, RUNNING); }
    describe DescribeInstance() { }
  }
}
)SPEC";
  std::string after = before;
  after.replace(after.find("write(status, RUNNING);"), 23, "");
  auto load = [](const std::string& src) {
    spec::ParseError err;
    auto spec = spec::parse_spec(src, &err);
    EXPECT_TRUE(spec.has_value()) << err.to_text();
    return interp::Interpreter(spec ? std::move(*spec) : spec::SpecSet{});
  };
  interp::Interpreter e0 = load(before);
  interp::Interpreter e1 = load(after);
  Trace t;
  t.add("RunInstance");
  t.add("_AdvanceClock", {{"ticks", Value(3)}});
  t.add("DescribeInstance", {{"id", Value("$0.id")}});
  EXPECT_NE(run_trace(e0, t)[2].data, run_trace(e1, t)[2].data);

  // A footprint reads only the machine and transition an action names.
  const std::vector<RepairAction> edit = {
      {RepairAction::Kind::kDropAssert, "Instance", "FinishLaunch", ""}};
  EXPECT_TRUE(EditFootprint(e1.spec(), edit).touches(t));
  Trace no_clock;
  no_clock.add("RunInstance");
  no_clock.add("DescribeInstance", {{"id", Value("$0.id")}});
  EXPECT_FALSE(EditFootprint(e1.spec(), edit).touches(no_clock));
}

// Subset replay must give the full pass's outcome in every replayed slot,
// leave the others alone, and not depend on the worker count.
TEST(ParallelSubsetReplay, MatchesTheFullPassAtTheReplayedIndices) {
  auto emu = emulator_for(kConfigs[0]);
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  std::vector<GenTrace> traces = TraceGenerator(emu.backend().spec()).generate_all();
  std::vector<TraceOutcome> full = ParallelExecutor(cloud, emu.backend(), 1).execute(traces);

  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < traces.size(); i += 3) subset.push_back(i);
  subset.push_back(traces.size() - 1);
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    std::vector<TraceOutcome> got(traces.size());
    got[1].probe_outcome = "untouched";
    ParallelExecutor exec(cloud, emu.backend(), workers);
    exec.execute(traces, subset, got);
    EXPECT_EQ(exec.effective_workers(), workers);
    EXPECT_EQ(got[1].probe_outcome, "untouched");
    for (std::size_t i : subset) {
      ASSERT_EQ(full[i].discrepancy != nullptr, got[i].discrepancy != nullptr) << i;
      if (full[i].discrepancy) {
        EXPECT_EQ(full[i].discrepancy->to_text(), got[i].discrepancy->to_text()) << i;
      }
      EXPECT_EQ(full[i].have_probe_outcome, got[i].have_probe_outcome) << i;
      EXPECT_EQ(full[i].probe_outcome, got[i].probe_outcome) << i;
    }
  }
}

TEST(ParallelReuse, LaterRoundsReplayOnlyWhatLastRoundsRepairsCanChange) {
  std::vector<AlignmentReport> reports;
  for (int workers : {1, 4}) {
    auto emu = emulator_for(kConfigs[0]);
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    AlignmentOptions opts;
    opts.workers = workers;
    reports.push_back(emu.align_against(cloud, opts));
  }
  const AlignmentReport& serial = reports[0];
  EXPECT_EQ(canonical_text(serial), canonical_text(reports[1]));
  ASSERT_GE(serial.rounds.size(), 3u);
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    SCOPED_TRACE(i);
    const RoundStats& r = serial.rounds[i];
    EXPECT_EQ(r.traces_replayed, reports[1].rounds[i].traces_replayed);
    EXPECT_EQ(r.calls_replayed, reports[1].rounds[i].calls_replayed);
    if (i == 0) {
      EXPECT_EQ(r.traces_replayed, r.traces);
      EXPECT_EQ(r.calls_replayed, r.api_calls);
    } else {
      // Every divergence is replayed, and most of the corpus is not.
      EXPECT_GE(r.traces_replayed, r.discrepancies);
      EXPECT_LT(r.traces_replayed * 2, r.traces);
      EXPECT_LT(r.calls_replayed, r.api_calls);
    }
  }
}

}  // namespace
}  // namespace lce::align
