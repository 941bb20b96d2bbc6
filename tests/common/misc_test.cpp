#include <gtest/gtest.h>

#include <set>

#include "common/errors.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/table.h"

namespace lce {
namespace {

TEST(Errors, RegistrySeededWithWellKnownCodes) {
  auto& reg = ErrorRegistry::instance();
  EXPECT_TRUE(reg.known(errc::kDependencyViolation));
  EXPECT_TRUE(reg.known(errc::kIncorrectInstanceState));
  EXPECT_TRUE(reg.known(errc::kInvalidSubnetRange));
  EXPECT_FALSE(reg.known("Bogus.Code.Nope"));
}

TEST(Errors, RenderMessageFillsPlaceholders) {
  auto& reg = ErrorRegistry::instance();
  std::string msg = reg.render_message(errc::kDependencyViolation,
                                       {{"resource", "Vpc"}, {"id", "vpc-1"}});
  EXPECT_NE(msg.find("Vpc"), std::string::npos);
  EXPECT_NE(msg.find("vpc-1"), std::string::npos);
}

TEST(Errors, RenderMessageUnknownCodeFallsBack) {
  std::string msg = ErrorRegistry::instance().render_message("Weird.Code", {});
  EXPECT_NE(msg.find("Weird.Code"), std::string::npos);
}

TEST(Ids, SequentialPerPrefix) {
  IdGenerator gen;
  EXPECT_EQ(gen.next("vpc"), "vpc-00000001");
  EXPECT_EQ(gen.next("vpc"), "vpc-00000002");
  EXPECT_EQ(gen.next("subnet"), "subnet-00000001");
}

TEST(Ids, ResetRestartsCounters) {
  IdGenerator gen;
  gen.next("vpc");
  gen.reset();
  EXPECT_EQ(gen.next("vpc"), "vpc-00000001");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform(10), 10u);
    auto v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(r.uniform(0), 0u);
  EXPECT_EQ(r.range(3, 3), 3);
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ForkIsIndependentStream) {
  Rng a(42);
  Rng fork = a.fork();
  EXPECT_NE(a.next_u64(), fork.next_u64());
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Service", "APIs"});
  t.add_row({"ec2", "571"});
  t.add_row({"dynamodb", "57"});
  std::string out = t.render();
  EXPECT_NE(out.find("| Service"), std::string::npos);
  EXPECT_NE(out.find("| ec2"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  std::string out = t.render();
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Series, RenderSeriesEmitsPoints) {
  std::string out = render_series("cdf", {{1.0, 0.5}, {2.0, 1.0}});
  EXPECT_NE(out.find("x=1.0"), std::string::npos);
  EXPECT_NE(out.find("y=1.000"), std::string::npos);
}

}  // namespace
}  // namespace lce
