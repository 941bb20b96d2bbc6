// The benchmark's own tests: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include "rawclient.h"
#include "script.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Script, SameSeedGivesSameRequestBytes) {
  for (ScriptKind kind : {ScriptKind::kAgentDescribe, ScriptKind::kIacApplyDestroy}) {
    auto a = make_script(kind, 7, 2);
    auto b = make_script(kind, 7, 2);
    auto c = make_script(kind, 8, 2);
    ASSERT_EQ(a.size(), b.size());
    bool differs_from_other_seed = false;
    for (std::size_t s = 0; s < a.size(); ++s) {
      ASSERT_EQ(a[s].ops.size(), b[s].ops.size());
      EXPECT_EQ(a[s].prologue, b[s].prologue);
      for (std::size_t i = 0; i < a[s].ops.size(); ++i) {
        EXPECT_EQ(a[s].ops[i].wire, b[s].ops[i].wire);
      }
      if (s < c.size() && (c[s].ops.size() != a[s].ops.size() ||
                           c[s].ops.back().wire != a[s].ops.back().wire ||
                           c[s].ops[a[s].prologue].wire != a[s].ops[a[s].prologue].wire)) {
        differs_from_other_seed = true;
      }
    }
    EXPECT_TRUE(differs_from_other_seed);
  }
}

TEST(Script, PlaceholdersArePatchedInPlace) {
  auto segs = make_script(ScriptKind::kIacApplyDestroy, 3, 1);
  Segment& seg = segs[0];
  // Op 1 (CreateSubnet) names the VPC op 0 created.
  ASSERT_FALSE(seg.ops[1].patches.empty());
  std::size_t length = seg.ops[1].wire.size();
  seg.slots[0] = "vpc-00000042";
  seg.patch(seg.ops[1]);
  EXPECT_EQ(seg.ops[1].wire.size(), length);
  EXPECT_NE(seg.body(seg.ops[1]).find("\"vpc\":\"vpc-00000042\""), std::string_view::npos);
}

TEST(Percentile, NearestRankEdgeCases) {
  EXPECT_EQ(nearest_rank({}, 50), 0);
  EXPECT_EQ(nearest_rank({5}, 0), 5);
  EXPECT_EQ(nearest_rank({5}, 50), 5);
  EXPECT_EQ(nearest_rank({5}, 100), 5);
  std::vector<double> two = {1, 2};
  EXPECT_EQ(nearest_rank(two, 50), 1);   // rank ceil(1.0) = 1
  EXPECT_EQ(nearest_rank(two, 51), 2);
  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(nearest_rank(ten, 90), 9);   // exactly rank 9, not rounded up
  EXPECT_EQ(nearest_rank(ten, 90.1), 10);
  EXPECT_EQ(nearest_rank(ten, 10), 1);
  EXPECT_EQ(nearest_rank(ten, -5), 1);
  EXPECT_EQ(nearest_rank(ten, 150), 10);
  std::vector<std::uint32_t> ns = {3000, 1000, 2000};
  LatencySummary s = summarise_ns(ns);
  EXPECT_EQ(s.samples, 3u);
  EXPECT_DOUBLE_EQ(s.p50_us, 2.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 3.0);
  EXPECT_EQ(median_of({4, 1, 3, 2}), 2);
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3, 6}), 3);
  EXPECT_EQ(mean_of({}), 0);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce) {
  SpanLog log;
  std::uint32_t op = log.intern("op");
  std::uint32_t a = log.intern("a");
  std::uint32_t b = log.intern("b");
  // op [0,100) with children [10,30) and [20,50) overlapping, plus a child
  // [90,120) that pokes out of its parent; grandchild [12,18) inside [10,30).
  std::int32_t root = log.add(op, 0, 100, -1, 1);
  std::int32_t c1 = log.add(a, 10, 30, root, 1);
  log.add(a, 20, 50, root, 1);
  log.add(b, 90, 120, root, 1);
  log.add(b, 12, 18, c1, 1);
  std::vector<std::int64_t> self = log.self_times();
  EXPECT_EQ(self[0], 100 - 40 - 10);  // union [10,50) + clipped [90,100)
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  auto agg = log.aggregate();
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_EQ(agg[1].name, "a");
  EXPECT_EQ(agg[1].count, 2u);
  EXPECT_DOUBLE_EQ(agg[1].total_self_ns, 14 + 30);
}

TEST(Spans, ScopedSpansNestUnderTheOpenSpan) {
  SpanLog log;
  {
    ScopedSpan outer(log, log.intern("outer"), 4);
    ScopedSpan inner(log, log.intern("inner"), 4);
  }
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].op, 4u);
  EXPECT_LE(log.spans()[1].end_ns, log.spans()[0].end_ns);
}

Segment one_op_segment(int status, std::string code, Expect::Echo echo) {
  Segment seg;
  seg.ops.resize(2);
  seg.slots.resize(2);
  seg.ops[0].mint_prefix = "vpc";
  seg.slots[0] = "vpc-00000007";
  seg.ops[1].target = 0;
  seg.ops[1].expect.status = status;
  seg.ops[1].expect.code = std::move(code);
  seg.ops[1].expect.echo = echo;
  return seg;
}

TEST(Checker, FlagsWrongStatusOrErrorCode) {
  const std::string violation =
      R"({"Error":{"Code":"DependencyViolation","Message":"has children"}})";
  Segment seg = one_op_segment(400, "DependencyViolation", Expect::Echo::kNone);
  EXPECT_TRUE(check_response(seg, 1, 400, violation));
  EXPECT_FALSE(check_response(seg, 1, 200, R"({"Data":{"id":"vpc-00000007"}})"));
  EXPECT_FALSE(check_response(seg, 1, 500, violation));
  EXPECT_FALSE(check_response(seg, 1, 400,
                              R"({"Error":{"Code":"DependencyViolationX","Message":""}})"));
  EXPECT_FALSE(check_response(seg, 1, 400, R"({"Error":{"Code":"InvalidVpc","Message":""}})"));

  Segment ok = one_op_segment(200, "", Expect::Echo::kTarget);
  EXPECT_TRUE(check_response(ok, 1, 200, R"({"Data":{"cidr_block":"10.0.0.0/16","id":"vpc-00000007"}})"));
  EXPECT_FALSE(check_response(ok, 1, 200, R"({"Data":{"id":"vpc-00000008"}})"));
  EXPECT_FALSE(check_response(ok, 1, 400, violation));
}

TEST(Checker, CapturesMintedIdsOfTheRightShape) {
  Segment seg = one_op_segment(200, "", Expect::Echo::kNone);
  seg.ops[0].expect.echo = Expect::Echo::kMinted;
  seg.slots[0].clear();
  EXPECT_FALSE(check_response(seg, 0, 200, R"({"Data":{"id":"subnet-00000001"}})"));
  EXPECT_FALSE(check_response(seg, 0, 200, R"({"Data":{"id":"vpc-0001"}})"));
  EXPECT_TRUE(check_response(seg, 0, 200, R"({"Data":{"id":"vpc-00000123"}})"));
  EXPECT_EQ(seg.slots[0], "vpc-00000123");
}

TEST(RawClient, FramesResponsesByContentLength) {
  int status = 0;
  std::size_t at = 0, len = 0, total = 0;
  std::string r = "HTTP/1.1 400 Bad Request\r\ncontent-type: application/json\r\n"
                  "Content-Length: 2\r\n\r\n{}HTTP/1.1";
  ASSERT_TRUE(frame_response(r, &status, &at, &len, &total));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(r.substr(at, len), "{}");
  EXPECT_EQ(total, r.size() - 8);
  EXPECT_FALSE(frame_response(r.substr(0, r.size() - 9), &status, &at, &len, &total));
  EXPECT_FALSE(frame_response("HTTP/1.1 200 OK\r\n\r\n", &status, &at, &len, &total));
}

}  // namespace
}  // namespace perfbench
