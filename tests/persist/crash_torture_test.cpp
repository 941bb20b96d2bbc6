// Crash-torture: a forked child journals writes through the real commit
// protocol (shared gate -> invoke -> WAL append) until the parent SIGKILLs
// it at an arbitrary moment — mid-record, mid-batch, mid-snapshot-rotation
// — then the parent verifies the acceptance property on the survivors:
// recovery succeeds, two independent recoveries produce byte-identical
// canonical dumps, and every surviving record's logged response
// reproduces. Repeats kill/recover cycles on the same data dir, so each
// round also proves a previous crash's debris doesn't poison the next.
//
// The suite is named CrashTorture so CI's TSan invocation can exclude it
// by regex; it also self-skips under TSan (fork + SIGKILL inside an
// instrumented multi-threaded process produces noise, not signal).
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/api.h"
#include "common/value.h"
#include "interp/interpreter.h"
#include "persist/journal.h"
#include "persist/persist_test_util.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace lce::persist {
namespace {

using persist::testing::ScratchDir;
using persist::testing::make_interp;

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

/// Child body: recover from `dir`, then journal creates from `threads`
/// writer threads until killed. With `log_reads` (a recording, as `lce
/// serve --record` opens it) each create is followed by a journaled
/// describe of what it made. Never returns.
[[noreturn]] void writer_child(const std::string& dir, std::uint64_t snapshot_every,
                               int threads, bool log_reads) {
  auto it = make_interp();
  PersistOptions opts;
  opts.data_dir = dir;
  opts.sync = WalSync::kNone;  // kill -9 is the crash model: page cache survives
  opts.snapshot_every = snapshot_every;
  opts.log_reads = log_reads;
  std::string error;
  auto mgr = PersistManager::open(it, opts, &error);
  if (mgr == nullptr) _exit(3);

  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      auto commit = [&](const ApiRequest& req) {
        ApiResponse resp;
        {
          std::shared_lock<std::shared_mutex> gate(mgr->gate());
          resp = it.invoke(req);
          if (!mgr->journal_call(req, resp)) _exit(4);
        }
        mgr->maybe_auto_snapshot();
        return resp;
      };
      const bool nic = t % 2 == 0;
      for (;;) {
        const ApiResponse created =
            commit({nic ? "CreateNic" : "CreatePublicIp",
                    {{nic ? "zone" : "region", Value("us-east")}},
                    ""});
        if (log_reads && created.ok) {
          commit({nic ? "DescribeNic" : "DescribePublicIp", {},
                  std::string(created.data.get("id")->as_str())});
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  _exit(5);  // unreachable: writers loop until SIGKILL
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  DataDirState state = scan_data_dir(dir);
  for (std::uint64_t e : state.wal_epochs) {
    WalScan scan = read_wal(wal_path(dir, e));
    total += scan.file_bytes;
  }
  return total;
}

void run_torture(std::uint64_t snapshot_every, int cycles, int writer_threads,
                 bool log_reads = false) {
  if (kTsan) GTEST_SKIP() << "fork-based torture is excluded under TSan";

  ScratchDir dir;
  std::mt19937 rng(0xC0FFEE);
  std::uint64_t prev_resources = 0;

  for (int cycle = 0; cycle < cycles; ++cycle) {
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) writer_child(dir.path(), snapshot_every, writer_threads, log_reads);

    // Let the child write for a bit; require growth so most cycles kill a
    // log that is actively being extended (first iterations may catch the
    // child mid-recovery, which is a valid crash window too).
    const std::uint64_t start = dir_bytes(dir.path());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (dir_bytes(dir.path()) <= start &&
           std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, WNOHANG), 0)
          << "child exited early with status " << status;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 40));

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child was not killed as intended: status " << status;

    // The acceptance property on whatever survived.
    auto a = make_interp();
    auto b = make_interp();
    ReplayReport report = replay_dir(dir.path(), &a, &b);
    ASSERT_TRUE(report.ok) << "cycle " << cycle << ": " << report.error << " "
                           << report.first_mismatch;
    ASSERT_TRUE(report.dumps_identical) << "cycle " << cycle;
    ASSERT_EQ(report.mismatches, 0u)
        << "cycle " << cycle << ": " << report.first_mismatch;

    // Durable state never regresses across crash/recover cycles: every
    // resource acked before a previous kill is still present.
    std::uint64_t resources = 0;
    {
      auto stripes = a.store().locks().lock_shared_all();
      resources = a.store().resources_in_creation_order().size();
    }
    ASSERT_GE(resources, prev_resources) << "cycle " << cycle;
    prev_resources = resources;
  }
  EXPECT_GT(prev_resources, 0u) << "torture never observed a committed write";
}

TEST(CrashTorture, KillDuringJournaledWrites) { run_torture(0, 5, 3); }

TEST(CrashTorture, KillDuringSnapshotRotation) {
  // A tight snapshot cadence makes most cycles die in or near a rotation
  // window (dump, tmp write, rename, WAL switch, stale deletion).
  run_torture(25, 5, 3);
}

TEST(CrashTorture, KillSingleWriterFastCycles) { run_torture(10, 8, 1); }

TEST(CrashTorture, KillDuringRecordedReadsAndWrites) {
  // A recording journals reads too and never snapshots: every surviving
  // describe's response must reproduce on replay as well.
  run_torture(0, 5, 3, /*log_reads=*/true);
}

}  // namespace
}  // namespace lce::persist
