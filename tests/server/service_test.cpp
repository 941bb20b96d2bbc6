#include "server/service.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "cloud/reference_cloud.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "persist/journal.h"
#include "persist/persist_test_util.h"
#include "server/json.h"
#include "stack/config.h"

namespace lce::server {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  // Requests route through the default layer stack (metrics -> validate ->
  // serialize), exactly as EmulatorEndpoint wires a live endpoint.
  ServiceTest()
      : cloud_(docs::build_aws_catalog()), stack_(stack::build_stack(cloud_)) {}

  HttpResponse post(const std::string& path, const std::string& body) {
    return handle_emulator_request(stack_, "POST", path, body);
  }

  HttpResponse get(const std::string& path) {
    return handle_emulator_request(stack_, "GET", path, "");
  }

  cloud::ReferenceCloud cloud_;
  stack::LayerStack stack_;
};

TEST_F(ServiceTest, HealthEndpoint) {
  auto resp = get("/health");
  EXPECT_EQ(resp.status, 200);
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->get("status")->as_str(), "ok");
  EXPECT_EQ(body->get("backend")->as_str(), "reference-cloud");
  // The health reply names the installed chain, outermost first.
  const Value* layers = body->get("layers");
  ASSERT_NE(layers, nullptr);
  ASSERT_EQ(layers->as_list().size(), 3u);
  EXPECT_EQ(layers->as_list()[0].as_str(), "metrics");
  EXPECT_EQ(layers->as_list()[1].as_str(), "validate");
  EXPECT_EQ(layers->as_list()[2].as_str(), "serialize");
}

TEST_F(ServiceTest, HealthOnRawBackendOmitsLayerChain) {
  auto resp = handle_emulator_request(cloud_, "GET", "/health", "");
  EXPECT_EQ(resp.status, 200);
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  EXPECT_FALSE(body->has("layers"));
}

TEST_F(ServiceTest, MetricsEndpointCountsInvokes) {
  post("/invoke", R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/16"}})");
  post("/invoke", R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/8"}})");
  auto resp = get("/metrics");
  EXPECT_EQ(resp.status, 200);
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  const Value* total = body->get("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->get("calls")->as_int(), 2);
  EXPECT_EQ(total->get("errors")->as_int(), 1);  // the /8 CIDR is rejected
  const Value* per_api = body->get("per_api");
  ASSERT_NE(per_api, nullptr);
  EXPECT_EQ(per_api->get("CreateVpc")->get("calls")->as_int(), 2);
}

TEST_F(ServiceTest, MetricsEndpointRequiresMetricsLayer) {
  auto raw = handle_emulator_request(cloud_, "GET", "/metrics", "");
  EXPECT_EQ(raw.status, 404);
  EXPECT_EQ(parse_json(raw.body)->get("Error")->get("Code")->as_str(),
            "MetricsUnavailable");
}

TEST_F(ServiceTest, InvokeSuccessReturnsData) {
  auto resp = post("/invoke",
                   R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/16"}})");
  EXPECT_EQ(resp.status, 200);
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  const Value* data = body->get("Data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->get("cidr_block")->as_str(), "10.0.0.0/16");
  EXPECT_TRUE(stack::looks_like_resource_id(data->get("id")->as_str()));
}

TEST_F(ServiceTest, InvokeFailureCarriesCloudErrorCode) {
  auto resp = post("/invoke",
                   R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/8"}})");
  EXPECT_EQ(resp.status, 400);
  auto body = parse_json(resp.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->get("Error")->get("Code")->as_str(), "InvalidVpc.Range");
}

TEST_F(ServiceTest, IdStringsRetaggedAsRefs) {
  auto vpc = post("/invoke",
                  R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/16"}})");
  // Owning copy: the parsed document is a temporary, and as_str() views
  // into it.
  std::string vpc_id(parse_json(vpc.body)->get("Data")->get("id")->as_str());
  // The id goes over the wire as a plain string; the service must re-tag
  // it so the backend's ref-typed parameter accepts it.
  auto subnet = post("/invoke",
                     to_json(Value(Value::Map{
                         {"Action", Value("CreateSubnet")},
                         {"Params", Value(Value::Map{{"vpc", Value(vpc_id)},
                                                     {"cidr_block", Value("10.0.1.0/24")},
                                                     {"zone", Value("us-east")}})}})));
  EXPECT_EQ(subnet.status, 200) << subnet.body;
}

TEST_F(ServiceTest, MalformedRequestsRejected) {
  EXPECT_EQ(post("/invoke", "not json").status, 400);
  EXPECT_EQ(post("/invoke", "[1,2]").status, 400);
  EXPECT_EQ(post("/invoke", R"({"Params":{}})").status, 400);
  EXPECT_EQ(post("/invoke", R"({"Action":"X","Params":[1]})").status, 400);
  EXPECT_EQ(get("/nope").status, 404);
  EXPECT_EQ(get("/invoke").status, 405);
}

TEST_F(ServiceTest, ResetAndSnapshot) {
  post("/invoke", R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/16"}})");
  auto snap = parse_json(get("/snapshot").body);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->as_map().size(), 1u);
  EXPECT_EQ(post("/reset", "").status, 200);
  snap = parse_json(get("/snapshot").body);
  EXPECT_TRUE(snap->as_map().empty());
}

TEST(Endpoint, LearnedEmulatorOverRealSockets) {
  // End to end: the learned emulator served over loopback HTTP, driven by
  // the JSON client — the LocalStack usage pattern.
  auto emulator =
      core::LearnedEmulator::from_docs(docs::render_corpus(docs::build_aws_catalog()));
  EmulatorEndpoint endpoint(emulator.backend());
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  auto vpc = invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
  ASSERT_TRUE(vpc.ok) << vpc.to_text();
  auto subnet = invoke_over_http(port, "CreateSubnet",
                                 {{"vpc", Value(vpc.data.get("id")->as_str())},
                                  {"cidr_block", Value("10.0.1.0/24")},
                                  {"zone", Value("us-east")}});
  ASSERT_TRUE(subnet.ok) << subnet.to_text();
  auto bad = invoke_over_http(port, "CreateSubnet",
                              {{"vpc", Value(vpc.data.get("id")->as_str())},
                               {"cidr_block", Value("10.0.0.0/29")},
                               {"zone", Value("us-east")}});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, "InvalidSubnet.Range");
  endpoint.stop();
  // After stop, requests fail at the transport layer.
  EXPECT_EQ(invoke_over_http(port, "CreateVpc", {}).code, "TransportError");
}

TEST(Endpoint, ConcurrentClientsSeeConsistentState) {
  // Parallel DevOps tools hammering one endpoint: every create must
  // succeed, every id must be unique, and the final snapshot must hold
  // exactly one resource per request.
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  EmulatorEndpoint endpoint(cloud);
  std::uint16_t port = endpoint.start();
  ASSERT_NE(port, 0);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::vector<std::thread> clients;
  std::mutex mu;
  std::set<std::string> ids;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto resp =
            invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
        if (!resp.ok) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        ids.emplace(resp.data.get("id")->as_str());
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
  auto snap = parse_json(http_request(port, "GET", "/snapshot")->body);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->as_map().size(), static_cast<std::size_t>(kThreads * kPerThread));
  endpoint.stop();
}

TEST_F(ServiceTest, AdminEndpointsRequirePersistence) {
  // Without a data dir there is no persist manager; the admin routes 404.
  for (const char* path : {"/admin/snapshot", "/admin/persist"}) {
    auto resp = handle_emulator_request(
        stack_, path == std::string("/admin/snapshot") ? "POST" : "GET", path, "");
    EXPECT_EQ(resp.status, 404) << path;
    EXPECT_EQ(parse_json(resp.body)->get("Error")->get("Code")->as_str(),
              "PersistenceUnavailable")
        << path;
  }
}

TEST(Endpoint, DurableServeSurvivesRestartOverHttp) {
  // The full durability loop over real sockets: journaled writes, an
  // on-demand snapshot via the admin API, endpoint teardown, then a second
  // endpoint recovering the same data dir and serving the old state.
  persist::testing::ScratchDir dir;
  persist::PersistOptions popts;
  popts.data_dir = dir.path();
  std::string vpc_id;
  {
    auto emulator = core::LearnedEmulator::from_docs(
        docs::render_corpus(docs::build_aws_catalog()));
    std::string error;
    auto mgr = persist::PersistManager::open(emulator.backend(), popts, &error);
    ASSERT_NE(mgr, nullptr) << error;
    EmulatorEndpoint endpoint(emulator.backend(), {}, mgr.get());
    std::uint16_t port = endpoint.start();
    ASSERT_NE(port, 0);

    auto vpc =
        invoke_over_http(port, "CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
    ASSERT_TRUE(vpc.ok) << vpc.to_text();
    vpc_id = vpc.data.get("id")->as_str();

    auto status = http_request(port, "GET", "/admin/persist");
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->status, 200);
    auto body = parse_json(status->body);
    ASSERT_TRUE(body);
    EXPECT_EQ(body->get("epoch")->as_int(), 1);
    EXPECT_EQ(body->get("wal_records")->as_int(), 1);
    EXPECT_FALSE(body->get("failed")->as_bool());

    auto snap = http_request(port, "POST", "/admin/snapshot");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->status, 200);
    auto snap_body = parse_json(snap->body);
    ASSERT_TRUE(snap_body);
    EXPECT_EQ(snap_body->get("status")->as_str(), "snapshotted");
    EXPECT_EQ(snap_body->get("epoch")->as_int(), 2);

    // Unsupported method on an admin route.
    auto del = http_request(port, "DELETE", "/admin/persist");
    ASSERT_TRUE(del.has_value());
    EXPECT_EQ(del->status, 405);

    // A post-snapshot write lands in the new epoch's log.
    auto subnet = invoke_over_http(port, "CreateSubnet",
                                   {{"vpc", Value(vpc_id)},
                                    {"cidr_block", Value("10.0.1.0/24")},
                                    {"zone", Value("us-east")}});
    ASSERT_TRUE(subnet.ok) << subnet.to_text();
    endpoint.stop();
  }
  {
    auto emulator = core::LearnedEmulator::from_docs(
        docs::render_corpus(docs::build_aws_catalog()));
    std::string error;
    persist::RecoveryResult rec;
    auto mgr =
        persist::PersistManager::open(emulator.backend(), popts, &error, &rec);
    ASSERT_NE(mgr, nullptr) << error;
    EXPECT_EQ(rec.epoch, 2u);
    EXPECT_TRUE(rec.snapshot_loaded);
    EXPECT_EQ(rec.wal_records, 1u);
    EmulatorEndpoint endpoint(emulator.backend(), {}, mgr.get());
    std::uint16_t port = endpoint.start();
    ASSERT_NE(port, 0);
    auto snap = parse_json(http_request(port, "GET", "/snapshot")->body);
    ASSERT_TRUE(snap);
    EXPECT_TRUE(snap->has(vpc_id)) << to_json(*snap);
    EXPECT_EQ(snap->as_map().size(), 2u);  // the vpc and its subnet
    endpoint.stop();
  }
}

TEST(Endpoint, ResetIsNotAckedAfterWalFailure) {
  // The no-unlogged-ack rule for POST /reset: once the WAL has failed, a
  // reset happens in memory but its marker never reaches the log, so
  // recovery would resurrect the pre-reset state — the handler must
  // return 500, exactly as the invoke path does for unlogged writes.
  persist::testing::ScratchDir dir;
  auto emulator = core::LearnedEmulator::from_docs(
      docs::render_corpus(docs::build_aws_catalog()));
  persist::PersistOptions popts;
  popts.data_dir = dir.path();
  std::string error;
  auto mgr = persist::PersistManager::open(emulator.backend(), popts, &error);
  ASSERT_NE(mgr, nullptr) << error;
  stack::StackConfig cfg;
  auto* raw_mgr = mgr.get();
  cfg.journal = [raw_mgr] {
    return std::make_unique<persist::JournalLayer>(raw_mgr);
  };
  auto stack = stack::build_stack(emulator.backend(), cfg);
  auto post = [&](const std::string& path, const std::string& body) {
    return handle_emulator_request(stack, "POST", path, body, raw_mgr);
  };

  ASSERT_EQ(post("/invoke",
                 R"({"Action":"CreateVpc","Params":{"cidr_block":"10.0.0.0/16"}})")
                .status,
            200);
  ASSERT_FALSE(mgr->status().failed);

  // Choke the WAL with a file-size rlimit: the next append is a genuine
  // I/O error (EFBIG once SIGXFSZ is ignored), latching the sticky
  // failure the way a full disk would.
  struct sigaction ignore_xfsz {};
  struct sigaction old_xfsz {};
  ignore_xfsz.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore_xfsz, &old_xfsz), 0);
  struct rlimit old_limit {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit tiny = old_limit;
  tiny.rlim_cur = 1;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tiny), 0);

  auto choked = post("/invoke",
                     R"({"Action":"CreateVpc","Params":{"cidr_block":"10.1.0.0/16"}})");
  EXPECT_EQ(choked.status, 500);
  auto reset = post("/reset", "");
  EXPECT_EQ(reset.status, 500);
  EXPECT_EQ(parse_json(reset.body)->get("Error")->get("Code")->as_str(),
            "InternalError");

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &old_xfsz, nullptr), 0);

  auto rec_twin = core::LearnedEmulator::from_docs(
      docs::render_corpus(docs::build_aws_catalog()));
  persist::RecoveryResult rec;
  std::string rec_error;
  auto reopened =
      persist::PersistManager::open(rec_twin.backend(), popts, &rec_error, &rec);
  ASSERT_NE(reopened, nullptr) << rec_error;
  // Recovery sees exactly what was acked: the first vpc, no reset.
  EXPECT_EQ(rec.wal_records, 1u);
  EXPECT_EQ(rec_twin.backend().snapshot().as_map().size(), 1u);
}

TEST(Endpoint, TwoBackendsSideBySideOverHttp) {
  // Differential testing over the wire: emulator and cloud each behind a
  // port, compared call by call — exactly the alignment setup, but remote.
  auto emulator =
      core::LearnedEmulator::from_docs(docs::render_corpus(docs::build_aws_catalog()));
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  EmulatorEndpoint emu_ep(emulator.backend());
  EmulatorEndpoint cloud_ep(cloud);
  std::uint16_t emu_port = emu_ep.start();
  std::uint16_t cloud_port = cloud_ep.start();
  ASSERT_NE(emu_port, 0);
  ASSERT_NE(cloud_port, 0);
  for (const char* cidr : {"10.0.0.0/16", "banana", "10.0.0.0/8"}) {
    auto a = invoke_over_http(emu_port, "CreateVpc", {{"cidr_block", Value(cidr)}});
    auto b = invoke_over_http(cloud_port, "CreateVpc", {{"cidr_block", Value(cidr)}});
    EXPECT_TRUE(b.aligned_with(a)) << cidr << ": " << a.to_text() << " vs " << b.to_text();
  }
  emu_ep.stop();
  cloud_ep.stop();
}

}  // namespace
}  // namespace lce::server
