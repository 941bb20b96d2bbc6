// Recording is journaling: `lce serve --record DIR` opens a data dir that
// logs reads too and never snapshots, and `lce trace import` turns its WAL
// into a script that replays from reset. TraceImport pins the two rules
// trace_from_records applies (the trace starts after the last reset; ids
// minted earlier in the trace become "$k.id"), and RecordedSession checks
// a recorded session end to end: twin replay, recovery against the live
// store, and the imported script against every logged outcome.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/reference_cloud.h"
#include "common/api.h"
#include "common/value.h"
#include "core/emulator.h"
#include "core/trace_script.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "interp/interpreter.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "persist/persist_test_util.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "stack/config.h"

namespace lce::persist {
namespace {

using persist::testing::ScratchDir;
using persist::testing::make_interp;

/// A manager over `it` opened the way `lce serve --record DIR` opens it,
/// plus the stack the endpoint serves through: validate -> journal
/// (metrics off: it plays no part here).
struct Recorder {
  Recorder(interp::Interpreter& it, const std::string& dir) {
    PersistOptions opts;
    opts.data_dir = dir;
    opts.log_reads = true;
    opts.snapshot_every = 0;
    std::string error;
    mgr = PersistManager::open(it, opts, &error);
    EXPECT_NE(mgr, nullptr) << error;
    stack::StackConfig cfg;
    cfg.metrics = false;
    cfg.journal = [this] { return std::make_unique<JournalLayer>(mgr.get()); };
    chain = std::make_unique<stack::LayerStack>(stack::build_stack(it, cfg));
  }

  ApiResponse call(const std::string& api, Value::Map args = {},
                   const std::string& target = "") {
    return chain->invoke(ApiRequest{api, std::move(args), target});
  }

  std::unique_ptr<PersistManager> mgr;
  std::unique_ptr<stack::LayerStack> chain;
};

core::LearnedEmulator aws_emulator() {
  return core::LearnedEmulator::from_docs(docs::render_corpus(docs::build_aws_catalog()));
}

std::string id_of(const ApiResponse& resp) {
  const Value* id = resp.data.get("id");
  return id != nullptr ? std::string(id->as_str()) : std::string();
}

std::vector<LogRecord> wal_records(const std::string& dir) {
  WalScan scan = read_wal(wal_path(dir, 1));
  EXPECT_TRUE(scan.header_ok);
  EXPECT_FALSE(scan.torn_tail);
  return scan.records;
}

TEST(TraceImport, WalIdsBecomePlaceholdersThatReplay) {
  ScratchDir dir;
  auto live = aws_emulator();
  {
    Recorder rec(live.backend(), dir.path());
    const ApiResponse vpc = rec.call("CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
    ASSERT_TRUE(vpc.ok) << vpc.to_text();
    // The vpc travels as a wire string; validate re-tags it as a ref, and
    // the journal logs the concrete id.
    const ApiResponse subnet =
        rec.call("CreateSubnet", {{"vpc", Value(id_of(vpc))},
                                  {"cidr_block", Value("10.0.1.0/24")},
                                  {"zone", Value("us-east")}});
    ASSERT_TRUE(subnet.ok) << subnet.to_text();
    const ApiResponse deleted = rec.call("DeleteSubnet", {}, id_of(subnet));
    ASSERT_TRUE(deleted.ok) << deleted.to_text();
  }

  Trace trace = trace_from_records(wal_records(dir.path()), "session");
  ASSERT_EQ(trace.calls.size(), 3u);
  EXPECT_EQ(trace.calls[1].args.at("vpc").as_str(), "$0.id");
  EXPECT_EQ(trace.calls[2].target, "$1.id");

  const std::string script = core::print_trace_script(trace);
  EXPECT_NE(script.find("vpc=$0"), std::string::npos) << script;
  core::ScriptError err;
  auto parsed = core::parse_trace_script(script, &err);
  ASSERT_TRUE(parsed) << err.to_text();

  // Fresh backends mint their own ids; the placeholders resolve to them.
  auto fresh = aws_emulator();
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  for (CloudBackend* backend : {static_cast<CloudBackend*>(&fresh.backend()),
                                static_cast<CloudBackend*>(&cloud)}) {
    SCOPED_TRACE(backend->name());
    const auto replayed = run_trace(*backend, *parsed);
    ASSERT_EQ(replayed.size(), 3u);
    for (const auto& r : replayed) EXPECT_TRUE(r.ok) << r.to_text();
  }
}

TEST(TraceImport, TraceStartsAfterTheLastReset) {
  ScratchDir dir;
  auto live = aws_emulator();
  {
    Recorder rec(live.backend(), dir.path());
    ASSERT_TRUE(rec.call("CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}).ok);
    rec.chain->reset();
    const ApiResponse vpc = rec.call("CreateVpc", {{"cidr_block", Value("10.1.0.0/16")}});
    ASSERT_TRUE(vpc.ok) << vpc.to_text();
    ASSERT_TRUE(rec.call("DescribeVpc", {}, id_of(vpc)).ok);
  }

  const std::vector<LogRecord> records = wal_records(dir.path());
  ASSERT_EQ(records.size(), 4u);
  Trace trace = trace_from_records(records);
  ASSERT_EQ(trace.calls.size(), 2u);
  EXPECT_EQ(trace.calls[0].args.at("cidr_block").as_str(), "10.1.0.0/16");
  EXPECT_EQ(trace.calls[1].api, "DescribeVpc");
  EXPECT_EQ(trace.calls[1].target, "$0.id");
}

TEST(TraceImport, FirstMinterWinsOverALoggedRead) {
  ScratchDir dir;
  auto live = aws_emulator();
  {
    Recorder rec(live.backend(), dir.path());
    const ApiResponse vpc = rec.call("CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}});
    ASSERT_TRUE(vpc.ok) << vpc.to_text();
    ASSERT_TRUE(rec.call("DescribeVpc", {}, id_of(vpc)).ok);
    ASSERT_TRUE(
        rec.call("ModifyVpcDescription", {{"value", Value("web")}}, id_of(vpc)).ok);
  }

  const std::vector<LogRecord> records = wal_records(dir.path());
  ASSERT_EQ(records.size(), 3u);
  // The logged describe echoes the vpc's id, so it lists it as minted too.
  ASSERT_EQ(records[1].minted_ids, records[0].minted_ids);
  Trace trace = trace_from_records(records);
  ASSERT_EQ(trace.calls.size(), 3u);
  EXPECT_EQ(trace.calls[1].target, "$0.id");
  EXPECT_EQ(trace.calls[2].target, "$0.id");
}

TEST(TraceImport, ExportThenImportPrintsTheSameScript) {
  const std::string script =
      "# deploy\n"
      "CreateVpc cidr_block=\"10.0.0.0/16\"\n"
      "CreateSubnet cidr_block=\"10.0.1.0/24\" vpc=$0 zone=\"us-east\"\n"
      "ModifySubnetAttribute id=$1 map_public_ip_on_launch=true\n"
      "DescribeSubnet id=$1\n";
  core::ScriptError err;
  auto parsed = core::parse_trace_script(script, &err);
  ASSERT_TRUE(parsed) << err.to_text();
  parsed->label = "deploy";
  ASSERT_EQ(core::print_trace_script(*parsed), script);

  ScratchDir dir;
  const std::string path = dir.path() + "/deploy.lcw";
  std::string error;
  ASSERT_TRUE(write_wal_file(path, records_from_trace(*parsed), &error)) << error;
  WalScan scan = read_wal(path);
  ASSERT_TRUE(scan.header_ok);
  EXPECT_EQ(core::print_trace_script(trace_from_records(scan.records, "deploy")),
            script);
}

/// A session recorded the way `lce serve --record DIR` records it: creates,
/// a failing create, a wire-string ref, describes (one failing) and a
/// delete, all through validate -> journal with reads logged.
class RecordedSession : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder rec(live_, dir_.path());
    auto call = [&](const std::string& api, Value::Map args = {},
                    const std::string& target = "") {
      responses_.push_back(rec.call(api, std::move(args), target));
      return responses_.back();
    };
    const std::string eni = id_of(call("CreateNic", {{"zone", Value("us-east")}}));
    const std::string eip = id_of(call("CreatePublicIp", {{"region", Value("us-east")}}));
    EXPECT_EQ(call("CreateNic", {{"zone", Value("eu-north")}}).code,
              "InvalidParameterValue");
    EXPECT_TRUE(call("AttachPublicIp", {{"ip", Value(eip)}}, eni).ok);
    EXPECT_TRUE(call("DescribeNic", {}, eni).ok);
    EXPECT_TRUE(call("DescribePublicIp", {}, eip).ok);
    EXPECT_TRUE(call("DetachPublicIp", {}, eni).ok);
    EXPECT_TRUE(call("DeleteNic", {}, eni).ok);
    EXPECT_FALSE(call("DescribeNic", {}, eni).ok);
    EXPECT_EQ(rec.mgr->status().wal_records, responses_.size());
  }

  ScratchDir dir_;
  interp::Interpreter live_ = make_interp();
  std::vector<ApiResponse> responses_;
};

TEST_F(RecordedSession, ReplayDirVerifiesEveryCall) {
  auto a = make_interp();
  auto b = make_interp();
  ReplayReport report = replay_dir(dir_.path(), &a, &b);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.mismatches, 0u) << report.first_mismatch;
  EXPECT_EQ(report.recovery.wal_records, responses_.size());
}

TEST_F(RecordedSession, RecoveredTwinEqualsLiveStore) {
  auto twin = make_interp();
  RecoveryResult rec = recover_into(dir_.path(), &twin);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(live_.store()));
}

TEST_F(RecordedSession, ImportReproducesEveryLoggedOutcome) {
  const std::vector<LogRecord> records = wal_records(dir_.path());
  ASSERT_EQ(records.size(), responses_.size());
  Trace trace = trace_from_records(records);
  auto fresh = make_interp();
  const auto replayed = run_trace(fresh, trace);
  ASSERT_EQ(replayed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(trace.calls[i].api);
    ASSERT_TRUE(records[i].has_response);
    EXPECT_EQ(records[i].response.code, responses_[i].code);
    // Same ok bit and code; a success also carries the same data.
    EXPECT_TRUE(replayed[i].aligned_with(records[i].response))
        << replayed[i].to_text() << " vs " << records[i].response.to_text();
  }
}

}  // namespace
}  // namespace lce::persist
