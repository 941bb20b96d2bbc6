// Repair locates the failing assert by its position in the transition
// body (FailureSite::stmt), not by its rendered text: two asserts that
// print alike are still two statements.
#include "align/repair.h"

#include <gtest/gtest.h>

#include "align/differ.h"
#include "interp/interpreter.h"
#include "spec/parser.h"

namespace lce::align {
namespace {

interp::Interpreter load(const char* src) {
  spec::ParseError err;
  auto s = spec::parse_spec(src, &err);
  EXPECT_TRUE(s.has_value()) << err.to_text();
  return interp::Interpreter(s ? std::move(*s) : spec::SpecSet{});
}

// The cloud checks the level before the write only.
constexpr const char* kCloudSpec = R"SPEC(
sm Dial {
  states { level: int = 1; }
  transitions {
    create CreateDial() { }
    modify SetLevel(v: int) {
      assert(level > 0) else InvalidParameterValue;
      write(level, v);
    }
  }
}
)SPEC";

GenTrace set_level(std::int64_t v) {
  GenTrace g;
  g.trace.add("CreateDial");
  g.trace.add("SetLevel", {{"id", Value("$0.id")}, {"v", Value(v)}});
  return g;
}

TEST(Repairer, DropsTheAssertThatFiredNotOneThatPrintsAlike) {
  interp::Interpreter cloud = load(kCloudSpec);
  interp::Interpreter emu = load(R"SPEC(
sm Dial {
  states { level: int = 1; }
  transitions {
    create CreateDial() { }
    modify SetLevel(v: int) {
      assert(level > 0) else InvalidParameterValue;
      write(level, v);
      assert(level > 0) else InvalidParameterValue;
    }
  }
}
)SPEC");
  GenTrace g = set_level(-1);
  auto d = diff_trace(cloud, emu, g);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->kind, DivergenceKind::kCloudOkEmuErr);

  auto action = Repairer(emu, cloud).repair(*d);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->kind, RepairAction::Kind::kDropAssert);
  // The second assert went; the call now succeeds as on the cloud.
  EXPECT_FALSE(diff_trace(cloud, emu, g).has_value());
  const spec::Transition* t =
      emu.spec().find_machine("Dial")->find_transition("SetLevel");
  ASSERT_EQ(t->body.size(), 2u);
  EXPECT_EQ(t->body[0]->kind, spec::StmtKind::kAssert);
  EXPECT_EQ(t->body[1]->kind, spec::StmtKind::kWrite);
}

TEST(Repairer, LeavesAnAssertInsideAnIfUnrepaired) {
  // The failing assert sits in an `if` arm; the top-level one that prints
  // alike passed and must not be dropped in its place.
  interp::Interpreter cloud = load(kCloudSpec);
  interp::Interpreter emu = load(R"SPEC(
sm Dial {
  states { level: int = 1; }
  transitions {
    create CreateDial() { }
    modify SetLevel(v: int) {
      assert(level > 0) else InvalidParameterValue;
      write(level, v);
      if (v < 0) {
        assert(level > 0) else InvalidParameterValue;
      }
    }
  }
}
)SPEC");
  GenTrace g = set_level(-1);
  auto d = diff_trace(cloud, emu, g);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(Repairer(emu, cloud).repair(*d).has_value());
  const spec::Transition* t =
      emu.spec().find_machine("Dial")->find_transition("SetLevel");
  ASSERT_EQ(t->body.size(), 3u);
  EXPECT_EQ(t->body[0]->kind, spec::StmtKind::kAssert);
}

}  // namespace
}  // namespace lce::align
