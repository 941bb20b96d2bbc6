#include <gtest/gtest.h>

#include "baselines/d2c.h"
#include "baselines/moto_like.h"
#include "cloud/reference_cloud.h"
#include "core/emulator.h"
#include "core/scenarios.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "stack/config.h"

namespace lce::core {
namespace {

docs::DocCorpus aws_docs() { return docs::render_corpus(docs::build_aws_catalog()); }

TEST(LearnedEmulator, FromDocsProducesWorkingBackend) {
  auto emu = LearnedEmulator::from_docs(aws_docs());
  EXPECT_TRUE(emu.synthesis().ok());
  auto r = emu.backend().invoke(
      ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  EXPECT_TRUE(r.ok) << r.to_text();
}

TEST(LearnedEmulator, RichMessagesOnByDefault) {
  auto emu = LearnedEmulator::from_docs(aws_docs());
  auto vpc = emu.backend().invoke(
      ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  emu.backend().invoke(ApiRequest{
      "CreateInternetGateway", {{"vpc", vpc.data.get_or("id", Value())}}, ""});
  auto del = emu.backend().invoke(
      ApiRequest{"DeleteVpc", {}, std::string(vpc.data.get("id")->as_str())});
  ASSERT_FALSE(del.ok);
  EXPECT_NE(del.message.find("Root cause"), std::string::npos);
}

TEST(LearnedEmulator, LayeredBackendWrapsInterpreterInConfiguredStack) {
  auto emu = LearnedEmulator::from_docs(aws_docs());
  stack::StackConfig cfg;
  cfg.fault_seed = 5;
  cfg.fault.throttle_rate = 0.0;
  cfg.fault.error_rate = 0.0;
  auto layered = stack::build_stack(emu.backend(), cfg);
  // No "serialize": the interpreter is thread_safe() via the sharded
  // store, so the gate stays out and the serve path runs concurrently.
  EXPECT_EQ(layered.layer_names(),
            (std::vector<std::string>{"metrics", "fault", "validate"}));
  EXPECT_TRUE(layered.thread_safe());
  auto r = layered.invoke(
      ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  EXPECT_TRUE(r.ok) << r.to_text();
  EXPECT_EQ(layered.find<stack::MetricsLayer>()->calls(), 1u);
  // The stack shares interpreter state with the bare backend() view.
  EXPECT_EQ(emu.backend().snapshot().as_map().size(), 1u);
}

TEST(LearnedEmulator, CoverageCountsSupportedApis) {
  auto emu = LearnedEmulator::from_docs(aws_docs());
  auto catalog = docs::build_aws_catalog();
  EXPECT_EQ(emu.covered(catalog.all_api_names()), catalog.api_count());
  EXPECT_EQ(emu.covered({"NotAnApi"}), 0u);
}

TEST(LearnedEmulator, AlignAgainstRecordsHistory) {
  auto emu = LearnedEmulator::from_docs(aws_docs());
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto report = emu.align_against(cloud);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(emu.alignment_history().size(), 1u);
}

TEST(Scenarios, SuiteIsThreeByFour) {
  auto suite = fig3_aws_suite();
  EXPECT_EQ(suite.entries.size(), 12u);
  auto names = suite.scenario_names();
  ASSERT_EQ(names.size(), 3u);
  std::map<std::string, int> counts;
  for (const auto& e : suite.entries) ++counts[e.scenario];
  EXPECT_EQ(counts["provisioning"], 4);
  EXPECT_EQ(counts["state-updates"], 4);
  EXPECT_EQ(counts["edge-cases"], 4);
}

// The Fig. 3 headline numbers (deterministic given the fixed seeds):
//   D2C aligns 3/12 (matching the paper exactly);
//   learned without alignment misses only the undocumented edge case;
//   learned with alignment aligns 12/12.
TEST(Fig3, D2cAlignsThreeOfTwelve) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto d2c = baselines::make_d2c_backend(aws_docs());
  auto acc = score_accuracy(*d2c, cloud, fig3_aws_suite());
  EXPECT_EQ(acc.overall.aligned, 3);
  EXPECT_EQ(acc.overall.total, 12);
  // All edge cases fail on D2C.
  EXPECT_EQ(acc.per_scenario["edge-cases"].aligned, 0);
}

TEST(Fig3, LearnedWithoutAlignmentMissesOnlyUndocumented) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = LearnedEmulator::from_docs(aws_docs());
  auto acc = score_accuracy(emu.backend(), cloud, fig3_aws_suite());
  EXPECT_EQ(acc.overall.aligned, 11);
  ASSERT_EQ(acc.failures.size(), 1u);
  EXPECT_NE(acc.failures[0].find("start-running-instance"), std::string::npos);
}

TEST(Fig3, LearnedWithAlignmentAlignsTwelveOfTwelve) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = LearnedEmulator::from_docs(aws_docs());
  cloud::ReferenceCloud oracle(docs::build_aws_catalog());
  emu.align_against(oracle);
  auto acc = score_accuracy(emu.backend(), cloud, fig3_aws_suite());
  EXPECT_EQ(acc.overall.aligned, 12) << (acc.failures.empty() ? "" : acc.failures[0]);
}

TEST(Fig3, MotoLikeIsWorseThanAlignedLearned) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  baselines::MotoLike moto(docs::build_aws_catalog());
  auto acc = score_accuracy(moto, cloud, fig3_aws_suite());
  EXPECT_LT(acc.overall.aligned, 12);
  EXPECT_GT(acc.overall.aligned, 3);  // still better than D2C
}

TEST(Fig3, AzureReplicationComparableAccuracy) {
  // §5 "Multi-cloud": the same workflow on Azure achieves comparable
  // accuracy.
  cloud::ReferenceCloud azure(docs::build_azure_catalog(),
                              cloud::ReferenceCloudOptions{.name = "azure-cloud"});
  auto emu = LearnedEmulator::from_docs(docs::render_corpus(docs::build_azure_catalog()));
  auto before = score_accuracy(emu.backend(), azure, fig3_azure_suite());
  EXPECT_GE(before.overall.aligned, before.overall.total - 2);
  cloud::ReferenceCloud oracle(docs::build_azure_catalog());
  emu.align_against(oracle);
  auto after = score_accuracy(emu.backend(), azure, fig3_azure_suite());
  EXPECT_EQ(after.overall.aligned, after.overall.total)
      << (after.failures.empty() ? "" : after.failures[0]);
}

}  // namespace
}  // namespace lce::core
