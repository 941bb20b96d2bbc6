// Differential plan-vs-tree contract: with `use_plan` on (the default)
// the interpreter compiles specs to execution plans; with it off it
// tree-walks the same spec. The two paths must be indistinguishable from
// the outside — byte-identical responses, canonical store dumps, and
// alignment reports — over every scenario corpus, under seeded fuzzing,
// on noise-degraded specs, and after alignment repairs rebuild the plan.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "align/engine.h"
#include "align/fuzz.h"
#include "cloud/reference_cloud.h"
#include "core/emulator.h"
#include "core/scenarios.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "interp/interpreter.h"
#include "persist/format.h"
#include "synth/synthesizer.h"

namespace lce {
namespace {

core::LearnedEmulator make_emu(const docs::DocCorpus& corpus, bool use_plan,
                               core::PipelineOptions opts = {}) {
  opts.use_plan = use_plan;
  return core::LearnedEmulator::from_docs(corpus, opts);
}

docs::DocCorpus clean_aws() { return docs::render_corpus(docs::build_aws_catalog()); }
docs::DocCorpus clean_azure() { return docs::render_corpus(docs::build_azure_catalog()); }

docs::DocCorpus defective_aws() {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(31337);
  docs::inject_defects(defective, 0.12, rng);
  return docs::render_corpus(defective);
}

/// run_trace through the located overload: each call's response and
/// failure site.
struct LocatedCall {
  ApiResponse response;
  interp::FailureSite site;
};
std::vector<LocatedCall> run_located(interp::Interpreter& it, const Trace& trace) {
  it.reset();
  std::vector<ApiResponse> prior;
  std::vector<LocatedCall> out;
  for (const auto& call : trace.calls) {
    LocatedCall c;
    c.response = it.invoke(resolve_placeholders(call, prior), &c.site);
    prior.push_back(c.response);
    out.push_back(std::move(c));
  }
  return out;
}

// Run every suite trace on both interpreters and require byte-identical
// responses, equal failure sites and (after each trace) byte-identical
// persist dumps — the strongest externally observable statement that the
// plan path left the Value::Map source of truth untouched.
void expect_traces_identical(interp::Interpreter& with_plan, interp::Interpreter& tree,
                             const core::ScenarioSuite& suite) {
  for (const auto& entry : suite.entries) {
    auto a = run_located(with_plan, entry.trace);
    auto b = run_located(tree, entry.trace);
    ASSERT_EQ(a.size(), b.size()) << entry.trace.label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].response.to_text(), b[i].response.to_text())
          << entry.trace.label << " call " << i;
      EXPECT_TRUE(a[i].site == b[i].site)
          << entry.trace.label << " call " << i << ": plan " << a[i].site.machine
          << "::" << a[i].site.transition << " stmt " << a[i].site.stmt << ", tree "
          << b[i].site.machine << "::" << b[i].site.transition << " stmt "
          << b[i].site.stmt;
    }
    EXPECT_EQ(persist::serialize_store(with_plan.store()),
              persist::serialize_store(tree.store()))
        << entry.trace.label;
    EXPECT_EQ(with_plan.snapshot().to_text(), tree.snapshot().to_text())
        << entry.trace.label;
  }
}

TEST(PlanEquivalence, AwsScenarioSuiteMatchesTreeWalk) {
  auto corpus = clean_aws();
  auto with_plan = make_emu(corpus, true);
  auto tree = make_emu(corpus, false);
  expect_traces_identical(with_plan.backend(), tree.backend(), core::fig3_aws_suite());
}

TEST(PlanEquivalence, AzureScenarioSuiteMatchesTreeWalk) {
  auto corpus = clean_azure();
  auto with_plan = make_emu(corpus, true);
  auto tree = make_emu(corpus, false);
  expect_traces_identical(with_plan.backend(), tree.backend(),
                          core::fig3_azure_suite());
}

TEST(PlanEquivalence, SeededFuzzFindsNoDivergence) {
  // The fuzz harness is the alignment loop's discrepancy detector: driving
  // it with the plan path as "emulator" and the tree path as "cloud" turns
  // any behavioural gap into a discovery. There must be none.
  auto corpus = clean_aws();
  auto with_plan = make_emu(corpus, true);
  auto tree = make_emu(corpus, false);
  align::FuzzOptions opts;
  opts.seed = 7;
  opts.max_calls = 6000;
  align::FuzzReport report =
      align::run_fuzz(with_plan.backend(), tree.backend(), tree.backend().spec(), opts);
  EXPECT_EQ(report.calls_executed, opts.max_calls);
  for (const auto& d : report.discoveries) {
    ADD_FAILURE() << "plan diverged from tree-walk: " << d.first
                  << " at call " << d.second;
  }
}

TEST(PlanEquivalence, NoiseDegradedSpecsStayEquivalent) {
  // Specs mangled by the synthesis noise model (dropped asserts, silent
  // transitions, enum drift, undeclared-variable writes...) exercise the
  // compiler's fallback paths; the plan must mirror the tree on them too.
  core::PipelineOptions popts;
  popts.synthesis.noise_rate = 0.25;
  popts.synthesis.seed = 97;
  popts.synthesis.consistency_checks = false;  // keep the damage in
  auto corpus = clean_aws();
  auto with_plan = make_emu(corpus, true, popts);
  auto tree = make_emu(corpus, false, popts);
  ASSERT_FALSE(with_plan.synthesis().noise.empty());

  align::FuzzOptions opts;
  opts.seed = 13;
  opts.max_calls = 5000;
  align::FuzzReport report =
      align::run_fuzz(with_plan.backend(), tree.backend(), tree.backend().spec(), opts);
  for (const auto& d : report.discoveries) {
    ADD_FAILURE() << "plan diverged on noisy spec: " << d.first
                  << " at call " << d.second;
  }
  expect_traces_identical(with_plan.backend(), tree.backend(), core::fig3_aws_suite());
}

TEST(PlanEquivalence, PostRepairSpecsStayEquivalent) {
  // Every alignment repair mutates the spec and (on the plan path)
  // rebuilds the plan. The repaired interpreters must still agree — this
  // covers plans compiled from specs the parser never saw verbatim.
  auto corpus = defective_aws();
  auto with_plan = make_emu(corpus, true);
  auto tree = make_emu(corpus, false);

  align::AlignmentOptions aopts;
  aopts.repair = true;
  aopts.workers = 1;
  cloud::ReferenceCloud cloud_a(docs::build_aws_catalog());
  cloud::ReferenceCloud cloud_b(docs::build_aws_catalog());
  auto report_plan = with_plan.align_against(cloud_a, aopts);
  auto report_tree = tree.align_against(cloud_b, aopts);
  EXPECT_EQ(align::canonical_text(report_plan), align::canonical_text(report_tree));

  align::FuzzOptions fopts;
  fopts.seed = 11;
  fopts.max_calls = 4000;
  align::FuzzReport fuzz = align::run_fuzz(with_plan.backend(), tree.backend(),
                                           tree.backend().spec(), fopts);
  for (const auto& d : fuzz.discoveries) {
    ADD_FAILURE() << "repaired plan diverged: " << d.first << " at call " << d.second;
  }
  expect_traces_identical(with_plan.backend(), tree.backend(), core::fig3_aws_suite());
}

TEST(PlanEquivalence, ParallelAlignmentReportsMatchAcrossModesAndWorkers) {
  // The full determinism matrix: {plan, tree} x {1, 4 workers} must yield
  // one canonical alignment report.
  auto corpus = defective_aws();
  std::vector<std::string> reports;
  for (bool use_plan : {true, false}) {
    for (int workers : {1, 4}) {
      auto emu = make_emu(corpus, use_plan);
      cloud::ReferenceCloud cloud(docs::build_aws_catalog());
      align::AlignmentOptions aopts;
      aopts.repair = true;
      aopts.workers = workers;
      reports.push_back(align::canonical_text(emu.align_against(cloud, aopts)));
    }
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[0], reports[i]) << "report " << i;
  }
}

}  // namespace
}  // namespace lce
