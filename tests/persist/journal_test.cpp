// PersistManager behavior above the WAL: the commit protocol (shared gate
// -> invoke -> journal), snapshot rotation under load, and the journal's
// read/write classification, which follows the compiled plan. The
// JournalConcurrency tests are part of the TSan CI selection — they
// hammer the gate, group commit, and epoch rotation from many threads at
// once.
#include "persist/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/api.h"
#include "common/value.h"
#include "interp/interpreter.h"
#include "interp/timers.h"
#include "persist/persist_test_util.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "stack/config.h"

namespace lce::persist {
namespace {

using persist::testing::ScratchDir;
using persist::testing::load_spec;
using persist::testing::make_interp;

/// A write whose name looks like a read: only the compiled plan knows
/// GetNextNumber modifies the counter.
constexpr const char* kCounterSpec = R"SPEC(
sm Counter {
  service "ec2";
  id_prefix "ctr";
  states {
    count: int = 0;
  }
  transitions {
    create CreateCounter() {
    }
    modify GetNextNumber() {
      write(count, count + 1);
    }
    describe DescribeCounter() {
    }
  }
}
)SPEC";

std::unique_ptr<PersistManager> open_mgr(interp::Interpreter& it,
                                         const std::string& dir,
                                         std::uint64_t snapshot_every = 0) {
  PersistOptions opts;
  opts.data_dir = dir;
  opts.snapshot_every = snapshot_every;
  std::string error;
  auto mgr = PersistManager::open(it, opts, &error);
  EXPECT_NE(mgr, nullptr) << error;
  return mgr;
}

/// One journaled write, the way JournalLayer commits it.
ApiResponse commit(PersistManager& mgr, interp::Interpreter& it,
                   const ApiRequest& req) {
  std::shared_lock<std::shared_mutex> gate(mgr.gate());
  ApiResponse resp = it.invoke(req);
  EXPECT_TRUE(mgr.journal_call(req, resp));
  return resp;
}

TEST(Journal, ShouldLogFollowsCompiledPlan) {
  for (bool use_plan : {true, false}) {
    SCOPED_TRACE(use_plan ? "plan" : "tree");
    ScratchDir dir;
    interp::InterpreterOptions iopts;
    iopts.use_plan = use_plan;
    interp::Interpreter it(load_spec(spec::fixtures::kPublicIpSpec), iopts);
    auto mgr = open_mgr(it, dir.path());
    ASSERT_NE(mgr, nullptr);
    EXPECT_TRUE(mgr->should_log("CreateNic"));
    EXPECT_TRUE(mgr->should_log("AttachPublicIp"));
    EXPECT_TRUE(mgr->should_log("AssociateNic"));
    EXPECT_TRUE(mgr->should_log("DeleteNic"));
    EXPECT_FALSE(mgr->should_log("DescribeNic"));
    EXPECT_FALSE(mgr->should_log("DescribePublicIp"));
    // Names the plan does not know are journaled whatever their prefix:
    // replay reproduces an unknown API's InvalidAction reply, and every
    // clock advance re-fires its timers on recovery.
    EXPECT_TRUE(mgr->should_log("ListNics"));
    EXPECT_TRUE(mgr->should_log("GetNicStatus"));
    EXPECT_TRUE(mgr->should_log(std::string(interp::timers::kAdvanceClockApi)));
  }
}

TEST(Journal, WriteNamedLikeAReadSurvivesRecovery) {
  ScratchDir dir;
  interp::Interpreter live(load_spec(kCounterSpec));
  auto mgr = open_mgr(live, dir.path());
  ASSERT_NE(mgr, nullptr);
  stack::StackConfig cfg;
  cfg.journal = [&mgr] { return std::make_unique<JournalLayer>(mgr.get()); };
  stack::LayerStack durable = stack::build_stack(live, cfg);

  ApiResponse created = durable.invoke({"CreateCounter", {}, ""});
  ASSERT_TRUE(created.ok) << created.to_text();
  const std::string id(created.data.get("id")->as_str());
  for (int i = 0; i < 3; ++i) {
    ApiResponse next = durable.invoke({"GetNextNumber", {{"id", Value::ref(id)}}, ""});
    ASSERT_TRUE(next.ok) << next.to_text();
  }
  EXPECT_EQ(mgr->status().wal_records, 4u);

  interp::Interpreter twin(load_spec(kCounterSpec));
  RecoveryResult rec = recover_into(dir.path(), &twin);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(live.store()));
}

TEST(Journal, LogReadsOptionJournalsEverything) {
  ScratchDir dir;
  auto it = make_interp();
  PersistOptions opts;
  opts.data_dir = dir.path();
  opts.log_reads = true;
  std::string error;
  auto mgr = PersistManager::open(it, opts, &error);
  ASSERT_NE(mgr, nullptr) << error;
  EXPECT_TRUE(mgr->should_log("DescribeNic"));
}

TEST(Journal, StatusReportsEpochAndRecords) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path());
  ASSERT_NE(mgr, nullptr);
  PersistStatus st = mgr->status();
  EXPECT_EQ(st.epoch, 1u);
  EXPECT_EQ(st.wal_records, 0u);
  EXPECT_FALSE(st.failed);

  commit(*mgr, it, {"CreateNic", {{"zone", Value("us-east")}}, ""});
  st = mgr->status();
  EXPECT_EQ(st.wal_records, 1u);
  EXPECT_GT(st.wal_bytes, kFileHeaderBytes);
}

TEST(Journal, SnapshotRotatesEpochAndTruncatesLog) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path());
  ASSERT_NE(mgr, nullptr);
  for (int i = 0; i < 4; ++i) {
    commit(*mgr, it, {"CreateNic", {{"zone", Value("us-east")}}, ""});
  }
  std::string error;
  ASSERT_TRUE(mgr->take_snapshot(&error)) << error;
  PersistStatus st = mgr->status();
  EXPECT_EQ(st.epoch, 2u);
  EXPECT_EQ(st.wal_records, 0u);  // fresh epoch log
  EXPECT_EQ(st.snapshots_taken, 1u);
  // The old epoch's files are gone; the new pair reconstructs the state.
  EXPECT_FALSE(std::filesystem::exists(wal_path(dir.path(), 1)));
  auto twin = make_interp();
  RecoveryResult rec = recover_into(dir.path(), &twin);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(it.store()));
}

TEST(Journal, RotationDiscardsStaleNextEpochWal) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path());
  ASSERT_NE(mgr, nullptr);
  commit(*mgr, it, {"CreateNic", {{"zone", Value("us-east")}}, ""});

  // A stale wal-2 from a prior life (e.g. recovery degraded to epoch 1
  // after snap-2 failed validation): its records must NOT survive the
  // rotation back into epoch 2 and replay on top of the fresh snapshot.
  {
    LogRecord stale;
    stale.type = LogRecord::Type::kCall;
    stale.request = {"CreateNic", {{"zone", Value("stale")}}, ""};
    std::string error;
    ASSERT_TRUE(write_wal_file(wal_path(dir.path(), 2), {stale}, &error)) << error;
  }

  std::string error;
  ASSERT_TRUE(mgr->take_snapshot(&error)) << error;
  EXPECT_EQ(mgr->status().epoch, 2u);
  EXPECT_EQ(mgr->status().wal_records, 0u);

  auto twin = make_interp();
  RecoveryResult rec = recover_into(dir.path(), &twin);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.wal_records, 0u);  // the stale records are gone
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(it.store()));
}

TEST(Journal, FailedRotationLeavesStateRecoverable) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path());
  ASSERT_NE(mgr, nullptr);
  commit(*mgr, it, {"CreateNic", {{"zone", Value("us-east")}}, ""});

  // Make wal-2 un-creatable: the rotation must fail BEFORE snap-2 becomes
  // discoverable, or recovery would pair snap-2 with the missing wal-2
  // and silently lose every write acked afterwards.
  ASSERT_TRUE(std::filesystem::create_directory(wal_path(dir.path(), 2)));
  std::string error;
  EXPECT_FALSE(mgr->take_snapshot(&error));
  EXPECT_EQ(mgr->status().epoch, 1u);
  EXPECT_FALSE(std::filesystem::exists(snapshot_path(dir.path(), 2)));

  // Serving continues on epoch 1 and later acked writes stay recoverable.
  commit(*mgr, it, {"CreateNic", {{"zone", Value("us-west")}}, ""});
  auto twin = make_interp();
  RecoveryResult rec = recover_into(dir.path(), &twin);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.wal_records, 2u);
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(it.store()));
}

TEST(Journal, ReopenAfterCleanShutdownResumesEpoch) {
  ScratchDir dir;
  {
    auto it = make_interp();
    auto mgr = open_mgr(it, dir.path());
    ASSERT_NE(mgr, nullptr);
    commit(*mgr, it, {"CreateNic", {{"zone", Value("us-east")}}, ""});
    std::string error;
    ASSERT_TRUE(mgr->take_snapshot(&error)) << error;
    commit(*mgr, it, {"CreatePublicIp", {{"region", Value("us-west")}}, ""});
  }
  auto it = make_interp();
  RecoveryResult rec;
  PersistOptions opts;
  opts.data_dir = dir.path();
  std::string error;
  auto mgr = PersistManager::open(it, opts, &error, &rec);
  ASSERT_NE(mgr, nullptr) << error;
  EXPECT_EQ(rec.epoch, 2u);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.wal_records, 1u);
  EXPECT_EQ(mgr->status().wal_records, 1u);
  // Resources from both sides of the rotation survived.
  auto describe = it.invoke({"DescribeNic", {}, "eni-00000001"});
  EXPECT_TRUE(describe.ok) << describe.to_text();
  auto eip = it.invoke({"DescribePublicIp", {}, "eip-00000001"});
  EXPECT_TRUE(eip.ok) << eip.to_text();
}

TEST(JournalConcurrency, ParallelCommittersAllDurable) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path());
  ASSERT_NE(mgr, nullptr);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ApiRequest req{t % 2 == 0 ? "CreateNic" : "CreatePublicIp",
                       {{t % 2 == 0 ? "zone" : "region", Value("us-east")}},
                       ""};
        ApiResponse resp = commit(*mgr, it, req);
        ASSERT_TRUE(resp.ok) << resp.to_text();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mgr->status().wal_records, kThreads * kPerThread);

  // Racing same-type creates may land in the log out of commit order, so
  // the replayed store can differ from the live one in seq assignment (the
  // documented determinism caveat). The durable guarantees: independent
  // recoveries agree byte-for-byte, every logged response reproduces, and
  // every acked resource survives with its exact id.
  auto a = make_interp();
  auto b = make_interp();
  ReplayReport report = replay_dir(dir.path(), &a, &b);
  EXPECT_TRUE(report.ok) << report.error << " " << report.first_mismatch;
  EXPECT_TRUE(report.dumps_identical);
  EXPECT_EQ(report.mismatches, 0u) << report.first_mismatch;
  EXPECT_EQ(a.store().resources_in_creation_order().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (int n = 1; n <= kPerThread * kThreads / 2; ++n) {
    char id[32];
    std::snprintf(id, sizeof(id), "eni-%08d", n);
    EXPECT_TRUE(a.invoke({"DescribeNic", {}, id}).ok) << id;
  }
}

TEST(JournalConcurrency, SnapshotsRaceWritersSafely) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path());
  ASSERT_NE(mgr, nullptr);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      std::string error;
      mgr->take_snapshot(&error);
    }
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ApiResponse resp =
            commit(*mgr, it, {"CreateNic", {{"zone", Value("us-west")}}, ""});
        ASSERT_TRUE(resp.ok) << resp.to_text();
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  snapshotter.join();

  // However the rotations interleaved, the durable artifacts reconstruct
  // a state both recoveries agree on, with every acked create present.
  auto a = make_interp();
  auto b = make_interp();
  ReplayReport report = replay_dir(dir.path(), &a, &b);
  ASSERT_TRUE(report.ok) << report.error << " " << report.first_mismatch;
  EXPECT_TRUE(report.dumps_identical);
  EXPECT_EQ(report.mismatches, 0u) << report.first_mismatch;
  EXPECT_EQ(a.store().resources_in_creation_order().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(JournalConcurrency, AutoSnapshotCadenceUnderParallelLoad) {
  ScratchDir dir;
  auto it = make_interp();
  auto mgr = open_mgr(it, dir.path(), /*snapshot_every=*/16);
  ASSERT_NE(mgr, nullptr);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        commit(*mgr, it, {"CreatePublicIp", {{"region", Value("us-east")}}, ""});
        mgr->maybe_auto_snapshot();
      }
    });
  }
  for (auto& th : threads) th.join();

  PersistStatus st = mgr->status();
  EXPECT_GT(st.snapshots_taken, 0u);  // the cadence fired
  EXPECT_LT(st.wal_records, kThreads * kPerThread);  // and truncated the log

  auto a = make_interp();
  auto b = make_interp();
  ReplayReport report = replay_dir(dir.path(), &a, &b);
  ASSERT_TRUE(report.ok) << report.error << " " << report.first_mismatch;
  EXPECT_TRUE(report.dumps_identical);
  EXPECT_EQ(a.store().resources_in_creation_order().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace lce::persist
