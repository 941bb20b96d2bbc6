#include "common/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace lce {
namespace {

TEST(Strings, StrfConcatenatesMixedTypes) {
  EXPECT_EQ(strf("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(strf(), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleToken) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsDropsRuns) {
  auto parts = split_ws("  a \t b\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, PrefixSuffixContains) {
  EXPECT_TRUE(starts_with("CreateVpc", "Create"));
  EXPECT_FALSE(starts_with("Vpc", "CreateVpc"));
  EXPECT_TRUE(ends_with("DeleteVpc", "Vpc"));
  EXPECT_TRUE(contains("InvalidSubnet.Range", "Subnet"));
}

TEST(Strings, CaseConversions) {
  EXPECT_EQ(to_lower("VpcID"), "vpcid");
  EXPECT_EQ(to_upper("eks"), "EKS");
}

TEST(Strings, CamelSnakeRoundTrip) {
  EXPECT_EQ(camel_to_snake("MapPublicIpOnLaunch"), "map_public_ip_on_launch");
  EXPECT_EQ(snake_to_camel("map_public_ip_on_launch"), "MapPublicIpOnLaunch");
  EXPECT_EQ(snake_to_camel(camel_to_snake("CidrBlock")), "CidrBlock");
}

TEST(Strings, ReplaceAllNonOverlapping) {
  EXPECT_EQ(replace_all("a{x}b{x}", "{x}", "1"), "a1b1");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, ParseIntAcceptsSigns) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("4x", v));
  EXPECT_FALSE(parse_int("-", v));
}

TEST(Strings, ParseIntRejectsOverflow) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int("9223372036854775807", v));
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(parse_int("-9223372036854775808", v));
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::min());
  // One past each bound is refused and leaves the prior value in place.
  v = 5;
  EXPECT_FALSE(parse_int("9223372036854775808", v));
  EXPECT_FALSE(parse_int("-9223372036854775809", v));
  EXPECT_FALSE(parse_int("18446744073709551615", v));
  EXPECT_FALSE(parse_int("99999999999999999999", v));
  EXPECT_EQ(v, 5);
}

TEST(Strings, FixedFormatsDigits) {
  EXPECT_EQ(fixed(1.0 / 3.0, 2), "0.33");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace lce
