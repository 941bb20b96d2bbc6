// POST /admin/tick: the virtual-time control surface. Gated behind
// --virtual-time, validates the Ticks argument, advances the clock through
// the normal layer stack (so journaling sees an ordinary call), and
// reports {failed, fired, now}.
#include <gtest/gtest.h>

#include <string>

#include "interp/interpreter.h"
#include "server/json.h"
#include "server/service.h"
#include "spec/parser.h"
#include "spec/spec_fixtures.h"
#include "stack/config.h"

namespace lce::server {
namespace {

class TickEndpointTest : public ::testing::Test {
 protected:
  TickEndpointTest()
      : interp_([] {
          spec::ParseError err;
          auto s = spec::parse_spec(spec::fixtures::kTimerSpec, &err);
          EXPECT_TRUE(s.has_value()) << err.to_text();
          return interp::Interpreter(s ? std::move(*s) : spec::SpecSet{});
        }()),
        stack_(stack::build_stack(interp_)) {}

  HttpResponse request(const std::string& method, const std::string& path,
                       const std::string& body, bool virtual_time) {
    HttpRequest req;
    req.method = method;
    req.path = path;
    req.body = body;
    return handle_emulator_request(stack_, req, /*persist=*/nullptr,
                                   /*server=*/nullptr, virtual_time);
  }

  HttpResponse tick(const std::string& body, bool virtual_time = true) {
    return request("POST", "/admin/tick", body, virtual_time);
  }

  interp::Interpreter interp_;
  stack::LayerStack stack_;
};

TEST_F(TickEndpointTest, DisabledWithoutVirtualTimeFlag) {
  auto resp = tick("{\"Ticks\": 1}", /*virtual_time=*/false);
  EXPECT_EQ(resp.status, 404);
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->get("Error")->get("Code")->as_str(), "VirtualTimeDisabled");
}

TEST_F(TickEndpointTest, AdvancesClockAndFiresThroughStack) {
  auto created = request(
      "POST", "/invoke",
      "{\"Action\": \"RunInstance\", \"Params\": {\"zone\": \"us-east\"}}", true);
  ASSERT_EQ(created.status, 200) << created.body;
  auto created_body = parse_json(created.body);
  ASSERT_TRUE(created_body);
  const std::string id(created_body->get("Data")->get("id")->as_str());

  auto early = tick("{\"Ticks\": 2}");
  ASSERT_EQ(early.status, 200) << early.body;
  auto early_body = parse_json(early.body);
  ASSERT_TRUE(early_body);
  EXPECT_EQ(early_body->get("Data")->get("fired")->as_int(), 0);
  EXPECT_EQ(early_body->get("Data")->get("now")->as_int(), 2);

  auto due = tick("{\"Ticks\": 1}");
  ASSERT_EQ(due.status, 200);
  auto due_body = parse_json(due.body);
  ASSERT_TRUE(due_body);
  EXPECT_EQ(due_body->get("Data")->get("fired")->as_int(), 1);
  EXPECT_EQ(due_body->get("Data")->get("now")->as_int(), 3);

  auto desc = request(
      "POST", "/invoke",
      "{\"Action\": \"DescribeInstance\", \"Params\": {\"id\": \"" + id + "\"}}",
      true);
  ASSERT_EQ(desc.status, 200);
  auto desc_body = parse_json(desc.body);
  ASSERT_TRUE(desc_body);
  EXPECT_EQ(desc_body->get("Data")->get("status")->as_str(), "RUNNING");
}

TEST_F(TickEndpointTest, EmptyBodyMeansOneTick) {
  auto resp = tick("");
  ASSERT_EQ(resp.status, 200) << resp.body;
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->get("Data")->get("now")->as_int(), 1);
}

TEST_F(TickEndpointTest, RejectsBadTicks) {
  EXPECT_EQ(tick("{\"Ticks\": 0}").status, 400);
  EXPECT_EQ(tick("{\"Ticks\": -2}").status, 400);
  EXPECT_EQ(tick("{\"Ticks\": \"three\"}").status, 400);
  EXPECT_EQ(tick("not json").status, 400);
  auto resp = tick("{\"Ticks\": 0}");
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->get("Error")->get("Code")->as_str(), "MalformedRequest");
}

TEST_F(TickEndpointTest, RejectsNonPost) {
  auto resp = request("GET", "/admin/tick", "", true);
  EXPECT_EQ(resp.status, 405);
}

}  // namespace
}  // namespace lce::server
