#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "baselines/d2c.h"
#include "baselines/moto_like.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "interp/interpreter.h"
#include "spec/checks.h"
#include "spec/parser.h"

namespace lce::baselines {
namespace {

MotoLike make_moto() { return MotoLike(docs::build_aws_catalog()); }

TEST(MotoLike, CoverageMatchesTable1) {
  auto moto = make_moto();
  auto catalog = docs::build_aws_catalog();
  std::map<std::string, std::size_t> per_service;
  for (const auto& s : catalog.services) {
    for (const auto& r : s.resources) {
      for (const auto& a : r.apis) {
        if (moto.supports(a.name)) ++per_service[s.name];
      }
    }
  }
  EXPECT_EQ(per_service["ec2"], 177u);
  EXPECT_EQ(per_service["dynamodb"], 39u);
  EXPECT_EQ(per_service["network-firewall"], 5u);
  EXPECT_EQ(per_service["eks"], 15u);
}

TEST(MotoLike, NetworkFirewallHasCreateButNotDelete) {
  // The paper's §2 anecdote.
  auto moto = make_moto();
  EXPECT_TRUE(moto.supports("CreateFirewall"));
  EXPECT_FALSE(moto.supports("DeleteFirewall"));
}

TEST(MotoLike, UnimplementedApiReturnsNotImplemented) {
  auto moto = make_moto();
  auto r = moto.invoke(ApiRequest{"DeleteFirewall", {}, ""});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "NotImplemented");
  EXPECT_EQ(r.message, "The DeleteFirewall action has not been implemented.");
}

TEST(MotoLike, ConstructionLeavesErrorTableUnchanged) {
  // NotImplemented is the baseline's own code, not the error table's. A
  // spec that uses it gets the same check findings and the same message
  // whether or not a MotoLike was built earlier in the process.
  auto probe = [] {
    spec::ParseError err;
    auto spec = spec::parse_spec(R"(
      sm Widget {
        states { }
        transitions {
          create CreateWidget() { assert(false) else NotImplemented; }
        }
      })",
                                 &err);
    EXPECT_TRUE(spec.has_value()) << err.to_text();
    if (!spec) return std::pair<std::size_t, std::string>{};
    std::size_t unknown = 0;
    for (const auto& issue : spec::run_checks(*spec).issues) {
      if (issue.kind == spec::CheckKind::kUnknownErrorCode) ++unknown;
    }
    interp::Interpreter it(std::move(*spec));
    return std::pair{unknown, it.invoke(ApiRequest{"CreateWidget", {}, ""}).message};
  };
  auto before = probe();
  auto moto = make_moto();
  auto after = probe();
  EXPECT_EQ(before.first, 1u);
  EXPECT_EQ(before.second, "Request failed with code NotImplemented.");
  EXPECT_EQ(after, before);
}

TEST(MotoLike, DeleteVpcBugReproduced) {
  // §2: "it allows the DeleteVpc() call to succeed even if it contained an
  // Internet Gateway, while the real AWS API would reject this API with a
  // 'DependencyViolation' error."
  auto moto = make_moto();
  auto vpc = moto.invoke(ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  ASSERT_TRUE(vpc.ok);
  auto igw = moto.invoke(
      ApiRequest{"CreateInternetGateway", {{"vpc", vpc.data.get_or("id", Value())}}, ""});
  ASSERT_TRUE(igw.ok);
  auto del = moto.invoke(ApiRequest{"DeleteVpc", {}, std::string(vpc.data.get("id")->as_str())});
  EXPECT_TRUE(del.ok) << del.to_text();  // the bug: should be DependencyViolation
}

TEST(MotoLike, StartInstanceSilentBugReproduced) {
  auto moto = make_moto();
  auto vpc = moto.invoke(ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  auto sub = moto.invoke(ApiRequest{"CreateSubnet",
                                    {{"vpc", vpc.data.get_or("id", Value())},
                                     {"cidr_block", Value("10.0.1.0/24")},
                                     {"zone", Value("us-east")}},
                                    ""});
  ASSERT_TRUE(sub.ok) << sub.to_text();
  auto inst = moto.invoke(ApiRequest{"RunInstance",
                                     {{"subnet", sub.data.get_or("id", Value())},
                                      {"instance_type", Value("t3.micro")}},
                                     ""});
  ASSERT_TRUE(inst.ok) << inst.to_text();
  auto start = moto.invoke(ApiRequest{"StartInstance", {}, std::string(inst.data.get("id")->as_str())});
  EXPECT_TRUE(start.ok);  // the bug: should be IncorrectInstanceState
}

TEST(MotoLike, SupportedApisStillBehave) {
  auto moto = make_moto();
  auto bad = moto.invoke(ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/8")}}, ""});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, "InvalidVpc.Range");
}

TEST(MotoLike, ResetClearsState) {
  auto moto = make_moto();
  moto.invoke(ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  moto.reset();
  EXPECT_TRUE(moto.snapshot().as_map().empty());
}

TEST(D2c, BackendExhibitsPaperBugs) {
  auto d2c = make_d2c_backend(docs::render_corpus(docs::build_aws_catalog()));
  // /29 subnet wrongly accepted.
  auto vpc = d2c->invoke(ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  ASSERT_TRUE(vpc.ok);
  auto sub = d2c->invoke(ApiRequest{"CreateSubnet",
                                    {{"vpc", vpc.data.get_or("id", Value())},
                                     {"cidr_block", Value("10.0.0.0/29")},
                                     {"zone", Value("us-east")}},
                                    ""});
  EXPECT_TRUE(sub.ok) << sub.to_text();
  // DeleteVpc with contents wrongly succeeds (no framework guard either).
  auto del = d2c->invoke(ApiRequest{"DeleteVpc", {}, std::string(vpc.data.get("id")->as_str())});
  EXPECT_TRUE(del.ok) << del.to_text();
}

TEST(D2c, MissingStateVariables) {
  auto d2c = make_d2c_backend(docs::render_corpus(docs::build_aws_catalog()));
  auto vpc = d2c->invoke(ApiRequest{"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  auto sub = d2c->invoke(ApiRequest{"CreateSubnet",
                                    {{"vpc", vpc.data.get_or("id", Value())},
                                     {"cidr_block", Value("10.0.1.0/24")},
                                     {"zone", Value("us-east")}},
                                    ""});
  auto inst = d2c->invoke(ApiRequest{"RunInstance",
                                     {{"subnet", sub.data.get_or("id", Value())},
                                      {"instance_type", Value("t3.micro")}},
                                     ""});
  ASSERT_TRUE(inst.ok) << inst.to_text();
  EXPECT_FALSE(inst.data.has("instance_tenancy"));
  EXPECT_FALSE(inst.data.has("credit_specification"));
}

}  // namespace
}  // namespace lce::baselines
