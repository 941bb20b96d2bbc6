// Located invokes: Interpreter::invoke(req, &site) returns the failing
// call's site to its own caller. Every origin is checked on both
// executors, which must report the same site, and concurrent located
// invokes on one interpreter must each see their own call's site.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/errors.h"
#include "common/strings.h"
#include "interp/interpreter.h"
#include "spec/parser.h"

namespace lce::interp {
namespace {

using Origin = FailureSite::Origin;

// Statement indexes are top-level body positions, noted per transition.
constexpr const char* kSpec = R"SPEC(
sm Box {
  service "test";
  id_prefix "box";
  states {
    level: int = 1;
    mode: enum(ON, OFF) = "ON";
    peer: ref Box;
  }
  transitions {
    create CreateBox() {
    }
    modify SetLevel(v: int) {
      assert(level > 0) else InvalidParameterValue;
      write(level, v);
      assert(level > 0) else InvalidParameterValue;
    }
    modify Guarded(v: int) {
      write(level, v);
      if (v > 10) {
        assert(v < 5) else LimitExceededException;
      }
    }
    modify SetMode(m: str) {
      read(level);
      write(mode, m);
    }
    modify SetPeer(p: ref Box) {
      write(peer, p);
    }
    modify Ping() {
      call(peer, Ping);
    }
    modify Poke(v: int) {
      read(level);
      if (v < 100) {
        call(peer, SetLevel, v);
        assert(v > 50) else ValidationError;
      }
    }
    describe DescribeBox() {
    }
    destroy DeleteBox() {
    }
  }
}

sm Item {
  service "test";
  id_prefix "item";
  contained_in Box;
  states { }
  transitions {
    create CreateItem(box: ref Box) {
      attach_parent(box);
    }
  }
}
)SPEC";

Interpreter make(bool use_plan) {
  spec::ParseError err;
  auto spec = spec::parse_spec(kSpec, &err);
  EXPECT_TRUE(spec.has_value()) << err.to_text();
  InterpreterOptions opts;
  opts.use_plan = use_plan;
  return Interpreter(spec ? std::move(*spec) : spec::SpecSet{}, opts);
}

std::string text(const FailureSite& s) {
  return strf("origin=", static_cast<int>(s.origin), " ", s.machine, "::", s.transition,
              " code=", s.error_code, " stmt=", s.stmt, " var=", s.var);
}

/// The site of the last call of `trace`, run from a fresh interpreter on
/// both executors, which must agree.
FailureSite last_site(const Trace& trace) {
  FailureSite sites[2];
  for (bool use_plan : {true, false}) {
    Interpreter it = make(use_plan);
    std::vector<ApiResponse> prior;
    for (const auto& call : trace.calls) {
      prior.push_back(it.invoke(resolve_placeholders(call, prior), &sites[use_plan]));
    }
    EXPECT_EQ(prior.back().ok, sites[use_plan].origin == Origin::kNone)
        << prior.back().to_text();
  }
  EXPECT_EQ(sites[true], sites[false]) << "plan: " << text(sites[true])
                                       << "\ntree: " << text(sites[false]);
  return sites[true];
}

void expect_site(const Trace& trace, Origin origin, const std::string& transition,
                 std::string_view code, int stmt, const std::string& var = "") {
  FailureSite s = last_site(trace);
  EXPECT_EQ(s.origin, origin) << text(s);
  EXPECT_EQ(s.transition, transition) << text(s);
  EXPECT_EQ(s.error_code, code) << text(s);
  EXPECT_EQ(s.stmt, stmt) << text(s);
  EXPECT_EQ(s.var, var) << text(s);
}

TEST(FailureSite, UnknownApiIsDispatch) {
  Trace t;
  t.add("LaunchRocket");
  expect_site(t, Origin::kDispatch, "", errc::kInvalidAction, -1);
}

TEST(FailureSite, MissingParameterIsDispatch) {
  Trace t;
  t.add("CreateBox");
  t.add("SetLevel", {{"id", Value("$0.id")}});
  expect_site(t, Origin::kDispatch, "SetLevel", errc::kMissingParameter, -1);
}

TEST(FailureSite, TopLevelAssertReportsItsOwnIndex) {
  // Both asserts print alike; the second one fires.
  Trace t;
  t.add("CreateBox");
  t.add("SetLevel", {{"id", Value("$0.id")}, {"v", Value(-1)}});
  expect_site(t, Origin::kAssert, "SetLevel", errc::kInvalidParameterValue, 2);
}

TEST(FailureSite, AssertInsideIfReportsTheIf) {
  Trace t;
  t.add("CreateBox");
  t.add("Guarded", {{"id", Value("$0.id")}, {"v", Value(20)}});
  expect_site(t, Origin::kAssert, "Guarded", errc::kLimitExceeded, 1);
}

TEST(FailureSite, WriteTypeViolationNamesTheVariable) {
  Trace t;
  t.add("CreateBox");
  t.add("SetMode", {{"id", Value("$0.id")}, {"m", Value("BOGUS")}});
  expect_site(t, Origin::kWriteCheck, "SetMode", errc::kInvalidParameterValue, 1, "mode");
}

TEST(FailureSite, DestroyWithChildrenIsFramework) {
  Trace t;
  t.add("CreateBox");
  t.add("CreateItem", {{"box", Value("$0.id")}});
  t.add("DeleteBox", {{"id", Value("$0.id")}});
  expect_site(t, Origin::kFramework, "DeleteBox", errc::kDependencyViolation, -1);
}

TEST(FailureSite, CallDepthLimitIsFramework) {
  Trace t;
  t.add("CreateBox");
  t.add("SetPeer", {{"id", Value("$0.id")}, {"p", Value("$0.id")}});
  t.add("Ping", {{"id", Value("$0.id")}});
  expect_site(t, Origin::kFramework, "Ping", errc::kInternalError, -1);
}

TEST(FailureSite, FailingSubCallNamesTheCallee) {
  Trace t;
  t.add("CreateBox");
  t.add("SetPeer", {{"id", Value("$0.id")}, {"p", Value("$0.id")}});
  t.add("Poke", {{"id", Value("$0.id")}, {"v", Value(-1)}});
  expect_site(t, Origin::kAssert, "SetLevel", errc::kInvalidParameterValue, 2);
}

TEST(FailureSite, AbortAfterSubCallReportsTheCallersStatement) {
  // SetLevel(5) succeeds inside the `if`; the assert after it fails.
  Trace t;
  t.add("CreateBox");
  t.add("SetPeer", {{"id", Value("$0.id")}, {"p", Value("$0.id")}});
  t.add("Poke", {{"id", Value("$0.id")}, {"v", Value(5)}});
  expect_site(t, Origin::kAssert, "Poke", errc::kValidationError, 1);
}

TEST(FailureSite, SuccessIsNone) {
  Trace t;
  t.add("CreateBox");
  t.add("SetLevel", {{"id", Value("$0.id")}, {"v", Value(-1)}});
  t.add("DescribeBox", {{"id", Value("$0.id")}});
  expect_site(t, Origin::kNone, "", "", -1);
}

TEST(FailureSite, AdvanceClockIsNone) {
  Trace t;
  t.add("LaunchRocket");
  t.add("_AdvanceClock", {{"ticks", Value(1)}});
  expect_site(t, Origin::kNone, "", "", -1);
}

TEST(FailureSite, AdvanceClockWithBadTicksIsDispatch) {
  for (const Value& ticks : {Value(0), Value(-3), Value("2")}) {
    SCOPED_TRACE(ticks.to_text());
    Trace t;
    t.add("_AdvanceClock", {{"ticks", ticks}});
    expect_site(t, Origin::kDispatch, "", errc::kInvalidParameterValue, -1);
  }
}

TEST(FailureSite, ConcurrentLocatedInvokesNameTheirOwnCall) {
  // Four threads fail four different calls on one interpreter; each site
  // must be its own call's, never another thread's.
  for (bool use_plan : {true, false}) {
    Interpreter it = make(use_plan);
    ApiResponse box = it.invoke(ApiRequest{"CreateBox", {}, ""});
    ASSERT_TRUE(box.ok) << box.to_text();
    const Value id = *box.data.get("id");
    struct Case {
      ApiRequest req;
      std::string transition;
      Origin origin;
      int stmt;
    };
    const std::vector<Case> cases = {
        {{"SetLevel", {{"id", id}}, ""}, "SetLevel", Origin::kDispatch, -1},
        {{"SetLevel", {{"id", id}, {"v", Value(-1)}}, ""}, "SetLevel", Origin::kAssert, 2},
        {{"Guarded", {{"id", id}, {"v", Value(20)}}, ""}, "Guarded", Origin::kAssert, 1},
        {{"SetMode", {{"id", id}, {"m", Value("BOGUS")}}, ""}, "SetMode",
         Origin::kWriteCheck, 1},
    };
    std::vector<int> wrong(cases.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < 1000; ++i) {
          FailureSite site;
          ApiResponse resp = it.invoke(cases[c].req, &site);
          if (resp.ok || site.transition != cases[c].transition ||
              site.origin != cases[c].origin || site.stmt != cases[c].stmt ||
              site.error_code != resp.code) {
            ++wrong[c];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t c = 0; c < cases.size(); ++c) {
      EXPECT_EQ(wrong[c], 0) << "use_plan=" << use_plan << " case " << c;
    }
  }
}

}  // namespace
}  // namespace lce::interp
