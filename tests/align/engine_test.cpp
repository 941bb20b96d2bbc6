// End-to-end tests of the §4.3 alignment loop: defective/underspecified
// docs in, aligned emulator out.
#include "align/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "align/fuzz.h"
#include "cloud/reference_cloud.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "spec/printer.h"
#include "synth/synthesizer.h"

namespace lce::align {
namespace {

std::unique_ptr<interp::Interpreter> make_emulator(const docs::DocCorpus& corpus,
                                                   double noise = 0.0,
                                                   std::uint64_t seed = 1) {
  synth::SynthesisOptions opts;
  opts.noise_rate = noise;
  opts.seed = seed;
  auto result = synth::synthesize(corpus, opts);
  return std::make_unique<interp::Interpreter>(std::move(result.spec));
}

TEST(Alignment, LearnsUndocumentedStartInstanceBehaviour) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()));

  AlignmentEngine engine(*emu, cloud);
  auto report = engine.run();
  EXPECT_TRUE(report.converged) << report.log.back();

  // The learned spec now refuses StartInstance on a running instance with
  // the cloud's exact code.
  Trace t;
  t.add("CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
  t.add("CreateSubnet", {{"vpc", Value("$0.id")},
                         {"cidr_block", Value("10.0.1.0/24")},
                         {"zone", Value("us-east")}});
  t.add("RunInstance", {{"subnet", Value("$1.id")}, {"instance_type", Value("t3.micro")}});
  t.add("StartInstance", {{"id", Value("$2.id")}});
  auto emu_resp = run_trace(*emu, t);
  auto cloud_resp = run_trace(cloud, t);
  EXPECT_FALSE(emu_resp[3].ok);
  EXPECT_EQ(emu_resp[3].code, "IncorrectInstanceState");
  EXPECT_TRUE(cloud_resp[3].aligned_with(emu_resp[3]));
  // The repair log names the learned check.
  bool learned = false;
  for (const auto& r : report.repairs) {
    if (r.transition == "StartInstance" &&
        r.kind == RepairAction::Kind::kAddStateCheck) {
      learned = true;
    }
  }
  EXPECT_TRUE(learned);
}

TEST(Alignment, CleanDocsConvergeAfterLearningUndocumentedBits) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()));
  AlignmentEngine engine(*emu, cloud);
  auto report = engine.run();
  EXPECT_TRUE(report.converged);
  // Every undocumented constraint produced work for the alignment loop.
  EXPECT_FALSE(report.repairs.empty());
  // A converged emulator has zero remaining discrepancies.
  EXPECT_TRUE(report.unrepaired.empty());
}

TEST(Alignment, RepairsInjectedDocDefects) {
  // Defective docs: omitted constraints, wrong error codes, widened
  // bounds. Alignment must repair what its trace classes can reach.
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(2024);
  auto plan = docs::inject_defects(defective, 0.15, rng);
  ASSERT_FALSE(plan.defects.empty());

  cloud::ReferenceCloud cloud(docs::build_aws_catalog());  // truth
  auto emu = make_emulator(docs::render_corpus(defective));

  AlignmentOptions opts;
  opts.max_rounds = 8;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  EXPECT_GT(report.repairs.size(), 0u);
  // Re-measure: discrepancies in the final round must be far fewer than in
  // the first.
  ASSERT_GE(report.rounds.size(), 2u);
  EXPECT_LT(report.rounds.back().discrepancies, report.rounds.front().discrepancies);
}

TEST(Alignment, DefectiveDocsFullyConverge) {
  // Omitted constraints, wrong codes, widened bounds AND undocumented
  // behaviours — the loop must repair all of them (bool-toggle
  // preconditions included) and converge to zero divergences.
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(31337);
  auto plan = docs::inject_defects(defective, 0.12, rng);
  ASSERT_FALSE(plan.defects.empty());
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(defective));
  AlignmentOptions opts;
  opts.max_rounds = 8;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  EXPECT_TRUE(report.converged) << report.log.back();
  EXPECT_TRUE(report.unrepaired.empty())
      << (report.unrepaired.empty() ? "" : report.unrepaired[0].to_text());
}

TEST(Alignment, LearnsBoolTogglePrecondition) {
  // Docs that omit Enable/Disable's `enabled` precondition: the bool state
  // sweep must expose it and the repair must encode the typed check.
  docs::CloudCatalog defective = docs::build_aws_catalog();
  for (auto& s : defective.services) {
    for (auto& r : s.resources) {
      if (r.name != "NetworkAcl") continue;
      for (auto& api : r.apis) {
        if (api.name == "DisableNetworkAcl") {
          for (auto& c : api.constraints) c.documented = false;
        }
      }
    }
  }
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(defective));
  AlignmentOptions opts;
  opts.max_rounds = 6;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  EXPECT_TRUE(report.converged);
  bool learned = false;
  for (const auto& r : report.repairs) {
    if (r.transition == "DisableNetworkAcl" &&
        r.kind == RepairAction::Kind::kAddStateCheck) {
      learned = true;
    }
  }
  EXPECT_TRUE(learned);
}

TEST(Alignment, RemovesStaleEnumMember) {
  // Stale docs list a tenancy value the cloud no longer accepts; the
  // member probe must expose it and the repair must shrink the domain.
  docs::CloudCatalog defective = docs::build_aws_catalog();
  for (auto& s : defective.services) {
    for (auto& r : s.resources) {
      if (r.name != "Instance") continue;
      if (docs::ApiModel* api = r.find_api("ModifyInstanceTenancy")) {
        for (auto& c : api->constraints) {
          if (c.kind == docs::ConstraintKind::kEnumDomain) {
            c.str_vals.push_back("legacy-metal");
          }
        }
      }
      for (auto& a : r.attrs) {
        if (a.name == "instance_tenancy") a.enum_members.push_back("legacy-metal");
      }
    }
  }
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(defective));

  // Pre-alignment: the emulator wrongly accepts the stale member.
  Trace t;
  t.add("CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
  t.add("CreateSubnet", {{"vpc", Value("$0.id")},
                         {"cidr_block", Value("10.0.1.0/24")},
                         {"zone", Value("us-east")}});
  t.add("RunInstance", {{"subnet", Value("$1.id")}, {"instance_type", Value("t3.micro")}});
  t.add("ModifyInstanceTenancy", {{"id", Value("$2.id")}, {"value", Value("legacy-metal")}});
  EXPECT_TRUE(run_trace(*emu, t)[3].ok);
  EXPECT_FALSE(run_trace(cloud, t)[3].ok);

  AlignmentOptions opts;
  opts.max_rounds = 6;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  bool tightened = false;
  for (const auto& r : report.repairs) {
    if (r.kind == RepairAction::Kind::kTightenEnum &&
        r.transition == "ModifyInstanceTenancy") {
      tightened = true;
    }
  }
  EXPECT_TRUE(tightened);
  auto emu_resp = run_trace(*emu, t);
  auto cloud_resp = run_trace(cloud, t);
  EXPECT_TRUE(cloud_resp[3].aligned_with(emu_resp[3]))
      << "cloud " << cloud_resp[3].to_text() << " emu " << emu_resp[3].to_text();
}

TEST(Alignment, RepairsSurvivingLlmNoise) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()),
                           /*noise=*/0.2, /*seed=*/77);
  AlignmentOptions opts;
  opts.max_rounds = 8;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  ASSERT_GE(report.rounds.size(), 2u);
  EXPECT_LT(report.rounds.back().discrepancies, report.rounds.front().discrepancies);
  EXPECT_FALSE(report.repairs.empty());
}

/// AWS docs with defects at rate 0.25 (seed 3) under synthesis noise
/// 0.25, aligned with 2 workers. Without the duplicate check, its repairs
/// re-insert asserts the spec already holds round after round (113
/// duplicates after 6 rounds), and round 2 still repairs, so a 2-round
/// budget ends the loop.
std::unique_ptr<interp::Interpreter> heavily_degraded_aws(std::uint64_t synth_seed = 1) {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(3);
  docs::inject_defects(defective, 0.25, rng);
  return make_emulator(docs::render_corpus(defective), /*noise=*/0.25, synth_seed);
}

TEST(Alignment, CreateThatLostItsWriteGetsTheWriteBackNotAFlippingInitial) {
  // The noise drops a create's write(attr, param). Patching the initial to
  // one trace's argument would flip it on the next trace's; at synthesis
  // seed 0 NetworkInterface.zone was patched 18 times, at seed 5
  // RuleGroup.rule_type 7 times.
  const std::vector<std::pair<std::uint64_t, std::string>> cases = {
      {0, "NetworkInterface::CreateNetworkInterface"},
      {5, "RuleGroup::CreateRuleGroup"},
  };
  for (const auto& [seed, create] : cases) {
    SCOPED_TRACE(seed);
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    auto emu = heavily_degraded_aws(seed);
    AlignmentOptions opts;
    opts.workers = 2;
    auto report = AlignmentEngine(*emu, cloud, opts).run();
    std::map<std::string, int> patched;  // "Machine initial 'attr'" -> times
    bool wired = false;
    for (const auto& r : report.repairs) {
      if (r.kind == RepairAction::Kind::kPatchInitial) {
        std::string attr = r.detail.substr(0, r.detail.find(" learned as "));
        EXPECT_EQ(++patched[r.machine + " " + attr], 1) << r.to_text();
      }
      if (r.kind == RepairAction::Kind::kAddWriteEffect &&
          r.machine + "::" + r.transition == create &&
          r.detail.find("from param") != std::string::npos) {
        wired = true;
      }
    }
    EXPECT_TRUE(wired) << create << " after " << report.rounds.size() << " rounds, "
                       << report.unrepaired.size() << " unrepaired";
  }
}

TEST(Alignment, RepairsNeverDuplicateAnAssert) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = heavily_degraded_aws();
  AlignmentOptions opts;
  opts.workers = 2;
  AlignmentEngine(*emu, cloud, opts).run();
  std::size_t duplicates = 0;
  for (const auto& m : emu->spec().machines) {
    for (const auto& t : m.transitions) {
      std::set<std::pair<std::string, std::string>> seen;
      for (const auto& s : t.body) {
        if (s->kind == spec::StmtKind::kAssert &&
            !seen.emplace(s->error_code, s->expr->to_text()).second) {
          ++duplicates;
        }
      }
    }
  }
  EXPECT_EQ(duplicates, 0u);
}

TEST(Alignment, RoundBudgetReportsWhatStillDiverges) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = heavily_degraded_aws();
  AlignmentOptions opts;
  opts.workers = 2;
  opts.max_rounds = 2;
  auto report = AlignmentEngine(*emu, cloud, opts).run();
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_GT(report.rounds.back().repairs, 0u);
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.unrepaired.empty());
  for (const auto& d : report.unrepaired) {
    GenTrace probe;
    probe.trace = d.trace;
    probe.cls = d.cls;
    EXPECT_TRUE(diff_trace(cloud, *emu, probe).has_value()) << d.to_text();
  }
}

TEST(Alignment, DetectionOnlyModeLeavesSpecUntouched) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()));
  std::string before = spec::print_spec(emu->spec());
  AlignmentOptions opts;
  opts.repair = false;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.unrepaired.empty());
  EXPECT_EQ(spec::print_spec(emu->spec()), before);
}

TEST(Alignment, ShrinkProducesMinimalReproducers) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()));
  AlignmentOptions opts;
  opts.repair = false;
  opts.shrink = false;
  AlignmentEngine engine(*emu, cloud, opts);
  auto report = engine.run();
  ASSERT_FALSE(report.unrepaired.empty());
  // Shrink one by hand and verify it still reproduces with fewer calls.
  Discrepancy d = report.unrepaired.front();
  std::size_t before = d.trace.calls.size();
  Discrepancy s = shrink(cloud, *emu, d);
  EXPECT_LE(s.trace.calls.size(), before);
  GenTrace probe;
  probe.trace = s.trace;
  auto again = diff_trace(cloud, *emu, probe);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->kind, s.kind);
}

TEST(Alignment, FuzzBaselineFindsFewerDiscrepanciesPerCall) {
  // §4.3's efficiency claim: symbolic classes beat random fuzzing.
  cloud::ReferenceCloud fuzz_cloud(docs::build_aws_catalog());
  auto fuzz_emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()));
  FuzzOptions fopts;
  fopts.max_calls = 3000;
  auto fuzz_report = run_fuzz(*fuzz_emu, fuzz_cloud, fuzz_emu->spec(), fopts);

  cloud::ReferenceCloud sym_cloud(docs::build_aws_catalog());
  auto sym_emu = make_emulator(docs::render_corpus(docs::build_aws_catalog()));
  AlignmentOptions opts;
  opts.repair = false;
  AlignmentEngine engine(*sym_emu, sym_cloud, opts);
  auto sym_report = engine.run();

  ASSERT_FALSE(sym_report.rounds.empty());
  double sym_rate = static_cast<double>(sym_report.rounds[0].discrepancies) /
                    static_cast<double>(sym_report.rounds[0].api_calls);
  double fuzz_rate = static_cast<double>(fuzz_report.discoveries.size()) /
                     static_cast<double>(fuzz_report.calls_executed);
  EXPECT_GT(sym_rate, fuzz_rate);
}

TEST(Differ, ClassifiesDivergenceKinds) {
  EXPECT_EQ(to_string(DivergenceKind::kCloudErrEmuOk), "cloud-err-emu-ok");
  Discrepancy d;
  d.trace.label = "x";
  d.trace.add("Foo");
  d.cloud = ApiResponse::failure("A", "a");
  d.emulator = ApiResponse::success();
  d.kind = DivergenceKind::kCloudErrEmuOk;
  std::string text = d.to_text();
  EXPECT_NE(text.find("cloud-err-emu-ok"), std::string::npos);
  EXPECT_NE(text.find("Foo"), std::string::npos);
}

}  // namespace
}  // namespace lce::align
