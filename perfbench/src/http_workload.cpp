// agent-describe and iac-apply-destroy: one load thread drives a few
// keep-alive connections, one request in flight each, against an
// in-process EmulatorEndpoint built exactly as `lce serve aws` builds it
// (metrics + validate stack, wire fast path; iac adds --data-dir with
// wal-sync none and snapshots every 10000 records).
#include <poll.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>

#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "core/scenarios.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "ledger.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "rawclient.h"
#include "script.h"
#include "server/service.h"
#include "spans.h"
#include "stack/config.h"
#include "stats.h"
#include "sysinfo.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lce::fixed;
using lce::strf;

// Thread and connection budget (README.md "Noise"): 1 load thread and 1 io
// thread leave half of a 4-CPU machine to the kernel's loopback work and
// to other tenants. With 2 io threads the kernel placed both connections
// on one event loop in every trial run, so the second loop only idled;
// with 1 io thread there is no placement to vary.
constexpr int kConnections = 2;
constexpr int kIoThreads = 1;
// Callers of stack.contended_invoke_ns: the least contention there is.
constexpr int kContendedCallers = 2;
constexpr int kSetups = 15;
constexpr int kAlignWorkers = 2;
constexpr double kWarmupSeconds = 1.0;
// Above this the load thread, not the server, limits throughput.
constexpr double kLoadThreadSaturated = 0.90;

struct Served {
  std::optional<lce::core::LearnedEmulator> emulator;
  std::unique_ptr<lce::persist::PersistManager> persist;
  std::unique_ptr<lce::server::EmulatorEndpoint> endpoint;
  std::vector<int> io_tids;
  std::uint16_t port = 0;
  std::string data_dir;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (endpoint) endpoint->stop();
  }
};

/// What `lce serve aws [--data-dir DIR]` does before its first request:
/// render the docs, synthesize and compile the spec, recover the data dir,
/// bind.
std::unique_ptr<Served> start_served(bool durable, const std::string& data_dir,
                                     Report& report) {
  auto s = std::make_unique<Served>();
  s->emulator = lce::core::LearnedEmulator::from_docs(
      lce::docs::render_corpus(lce::docs::build_aws_catalog()));
  if (durable) {
    lce::persist::PersistOptions popts;
    popts.data_dir = data_dir;
    popts.snapshot_every = 10000;
    popts.sync = lce::persist::WalSync::kNone;
    std::string error;
    s->persist = lce::persist::PersistManager::open(s->emulator->backend(), popts, &error);
    if (s->persist == nullptr) {
      report.fail("cannot open data dir: " + error);
      return nullptr;
    }
    s->data_dir = data_dir;
  }
  lce::server::HttpServerOptions hopts;
  hopts.io_threads = kIoThreads;
  std::vector<int> before = thread_ids();
  s->endpoint = std::make_unique<lce::server::EmulatorEndpoint>(
      s->emulator->backend(), lce::stack::StackConfig{}, s->persist.get(), hopts);
  s->port = s->endpoint->start(0);
  if (s->port == 0) {
    report.fail("endpoint failed to bind");
    return nullptr;
  }
  for (int tid : thread_ids()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      s->io_tids.push_back(tid);
    }
  }
  return s;
}

struct Conn {
  RawConn raw;
  Segment* seg = nullptr;
  std::size_t next = 0;
  std::size_t current = 0;
  std::int64_t sent_ns = 0;
  std::int64_t send_end_ns = 0;
  bool in_flight = false;
  bool broken = false;
};

struct Window {
  /// Latency percentiles of each whole second of the window (ops that
  /// complete in the final partial second are counted but not summarised).
  std::vector<LatencySummary> seconds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t load_cpu_ns = 0;
  std::vector<double> io_busy;
  lce::server::HttpServerStats before, after;
};

bool send_next(Conn& c) {
  if (c.next >= c.seg->ops.size()) c.next = c.seg->prologue;
  c.current = c.next++;
  ScriptOp& op = c.seg->ops[c.current];
  c.seg->patch(op);
  c.sent_ns = now_ns();
  c.in_flight = c.raw.send_all(op.wire);
  c.send_end_ns = now_ns();
  if (!c.in_flight) c.broken = true;
  return c.in_flight;
}

/// Runs the closed loop until `seconds` have passed (ops in flight then
/// complete). With `record`, every op sent in the window is counted and
/// timed; with `spans`, each op also gets an "op" span with
/// "client.send" and "client.check" children.
Window drive(std::vector<Conn>& conns, const Served& served, double seconds, bool record,
             SpanLog* spans) {
  Window w;
  std::uint32_t op_name = spans ? spans->intern("op") : 0;
  std::uint32_t send_name = spans ? spans->intern("client.send") : 0;
  std::uint32_t check_name = spans ? spans->intern("client.check") : 0;
  std::uint64_t op_id = spans ? spans->size() : 0;
  std::vector<std::uint64_t> io_before;
  for (int tid : served.io_tids) io_before.push_back(thread_cpu_ns(tid));
  w.before = served.endpoint->server_stats();
  std::uint64_t cpu0 = self_cpu_ns();
  std::int64_t t_start = now_ns();
  std::int64_t deadline = t_start + static_cast<std::int64_t>(seconds * 1e9);

  // Reserved once: a growing sample buffer would make peak RSS depend on
  // throughput.
  std::vector<std::uint32_t> second;
  second.reserve(1 << 20);
  std::vector<pollfd> pfds(conns.size());
  auto start_op = [&](Conn& c) {
    if (c.broken) return;
    if (!send_next(c) && record) {
      ++w.attempted;
      ++w.failed;
    }
  };
  for (Conn& c : conns) start_op(c);
  for (;;) {
    std::size_t live = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].in_flight ? conns[i].raw.fd() : -1;
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
      live += conns[i].in_flight ? 1 : 0;
    }
    if (live == 0) break;
    if (::poll(pfds.data(), pfds.size(), 1000) < 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.in_flight || pfds[i].revents == 0) continue;
      RawConn::Read r = c.raw.read_some();
      if (r == RawConn::Read::kNeedMore) continue;
      c.in_flight = false;
      if (r == RawConn::Read::kError) {
        c.broken = true;
        if (record) {
          ++w.attempted;
          ++w.failed;
        }
        continue;
      }
      std::int64_t t_recv = now_ns();
      bool ok = check_response(*c.seg, c.current, c.raw.status(), c.raw.body());
      std::int64_t t_done = now_ns();
      c.raw.consume();
      if (record) {
        while (t_recv >= t_start + static_cast<std::int64_t>(w.seconds.size() + 1) * 1000000000) {
          w.seconds.push_back(summarise_ns(second));
          second.clear();
        }
        std::int64_t lat = t_recv - c.sent_ns;
        second.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(lat, std::numeric_limits<std::uint32_t>::max())));
        ++w.attempted;
        if (!ok) ++w.failed;
      }
      if (spans) {
        std::int32_t root = spans->add(op_name, c.sent_ns, t_done, -1, ++op_id);
        spans->add(send_name, c.sent_ns, c.send_end_ns, root, op_id);
        spans->add(check_name, t_recv, t_done, root, op_id);
      }
      if (t_done < deadline) start_op(c);
    }
  }
  w.wall_ns = now_ns() - t_start;
  w.load_cpu_ns = self_cpu_ns() - cpu0;
  w.after = served.endpoint->server_stats();
  for (std::size_t i = 0; i < served.io_tids.size(); ++i) {
    w.io_busy.push_back(static_cast<double>(thread_cpu_ns(served.io_tids[i]) - io_before[i]) /
                        static_cast<double>(w.wall_ns));
  }
  return w;
}

struct AccuracyCheck {
  double accuracy = 0;
  std::size_t residual = 0;
};

/// The served emulator scored the way learn-align scores its result: the
/// Fig. 3 suite against the reference cloud, and one detection-only
/// alignment round (nothing is repaired, so every discrepancy remains).
AccuracyCheck check_accuracy(lce::core::LearnedEmulator& emu) {
  AccuracyCheck out;
  lce::cloud::ReferenceCloud cloud(lce::docs::build_aws_catalog());
  out.accuracy = lce::core::score_accuracy(emu.backend(), cloud, lce::core::fig3_aws_suite())
                     .overall.ratio();
  lce::align::AlignmentOptions aopts;
  aopts.repair = false;
  aopts.max_rounds = 1;
  aopts.workers = kAlignWorkers;
  out.residual = emu.align_against(cloud, aopts).unrepaired.size();
  emu.backend().reset();
  return out;
}

}  // namespace

void run_http(const RunOptions& opts, Report& report) {
  const bool durable = opts.workload == "iac-apply-destroy";
  const ScriptKind kind = durable ? ScriptKind::kIacApplyDestroy : ScriptKind::kAgentDescribe;
  const int nproc = cpus_available();
  check_thread_budget(1, kIoThreads, 0, report);

  std::vector<Segment> script = make_script(kind, opts.seed, kConnections);

  // Set-up, several times; the last endpoint serves the load.
  std::unique_ptr<Served> served;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    served.reset();
    std::string dir = strf(opts.work_dir, "/data-", k);
    std::filesystem::remove_all(dir);
    std::int64_t t0 = now_ns();
    served = start_served(durable, dir, report);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (served == nullptr) return;
  }

  // Expected outcomes: the same script replayed in process on a fresh
  // emulator behind the shipped stack.
  auto reference = lce::core::LearnedEmulator::from_docs(
      lce::docs::render_corpus(lce::docs::build_aws_catalog()));
  {
    lce::stack::LayerStack stack = lce::stack::build_stack(reference.backend());
    std::string problem = derive_expectations(script, stack);
    if (!problem.empty()) report.fail("script replay: " + problem);
    reference.backend().reset();
  }

  // The load thread and the io thread share one CPU for the load phases
  // (README.md "Noise"): the CPU never idles between requests, so no run
  // pays idle-state exits or cross-CPU wakeups that another run skips.
  const std::vector<int> cpus = allowed_cpus();
  const std::vector<int> load_cpu = {cpus.empty() ? 0 : cpus.back()};
  bool pinned = !cpus.empty() && set_thread_cpus(0, load_cpu);
  for (int tid : served->io_tids) pinned = pinned && set_thread_cpus(tid, load_cpu);
  if (!pinned) report.fail("cannot pin the load and io threads to one CPU");
  std::vector<Conn> conns(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    conns[c].seg = &script[static_cast<std::size_t>(c)];
    if (!conns[c].raw.connect(served->port)) {
      report.fail("cannot connect to the endpoint");
      return;
    }
  }
  // Prologues (agent-describe's prepopulated resources), serially.
  for (Conn& c : conns) {
    for (std::size_t i = 0; i < c.seg->prologue; ++i) {
      ScriptOp& op = c.seg->ops[i];
      c.seg->patch(op);
      if (!c.raw.roundtrip(op.wire) ||
          !check_response(*c.seg, i, c.raw.status(), c.raw.body())) {
        report.fail(strf("prologue op ", op.api, " failed"));
        return;
      }
      c.raw.consume();
    }
    c.next = c.seg->prologue;
  }

  drive(conns, *served, kWarmupSeconds, false, nullptr);
  double measure = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  Window w = drive(conns, *served, measure, true, nullptr);
  double peak_rss = peak_rss_mb();
  SpanLog load_spans;
  std::optional<Window> traced;
  if (opts.trace) {
    load_spans.reserve(w.attempted * 4 + 1024);
    traced = drive(conns, *served, measure, true, &load_spans);
  }

  report.attempted = w.attempted + (traced ? traced->attempted : 0);
  report.failed = w.failed + (traced ? traced->failed : 0);
  // Means over the whole seconds of the window. The host alternates between
  // two speed levels in stretches of seconds (README.md "Noise"), so a
  // median over seconds would snap to whichever level held most of the run;
  // the mean moves smoothly with the share of each.
  auto mean_over_seconds = [&](double LatencySummary::*field) {
    std::vector<double> v;
    for (const LatencySummary& sec : w.seconds) v.push_back(sec.*field);
    return mean_of(v);
  };
  std::vector<double> per_second_ops;
  std::string per_second;
  for (const LatencySummary& sec : w.seconds) {
    per_second_ops.push_back(static_cast<double>(sec.samples));
    per_second += strf(" ", sec.samples);
  }
  double tput = mean_of(per_second_ops);
  double p50_us = mean_over_seconds(&LatencySummary::p50_us);
  double p90_us = mean_over_seconds(&LatencySummary::p90_us);
  double cpu_share = static_cast<double>(w.load_cpu_ns) / static_cast<double>(w.wall_ns);
  double busy_min = w.io_busy.empty() ? 0 : *std::min_element(w.io_busy.begin(), w.io_busy.end());
  double busy_max = w.io_busy.empty() ? 0 : *std::max_element(w.io_busy.begin(), w.io_busy.end());
  report.note(strf("workload ", opts.workload, " seed ", opts.seed, ": closed loop, 1 load thread, ",
                   kConnections, " keep-alive connections (1 request in flight each), ",
                   served->io_tids.size(), " io thread, both threads on cpu ", load_cpu[0],
                   ", nproc ", nproc,
                   durable ? ", --data-dir (wal-sync none, snapshot every 10000)" : ""));
  report.note(strf("measured ", fixed(static_cast<double>(w.wall_ns) / 1e9, 3), " s: ", w.attempted,
                   " ops, ", w.failed, " failed; ops per second:", per_second));
  report.note(strf("mean of ", w.seconds.size(), " one-second windows (latency samples per window above): ",
                   fixed(tput, 0), " ops/s, p50 ", fixed(p50_us, 2), " us, p90 ",
                   fixed(p90_us, 2), " us, p99 ",
                   fixed(mean_over_seconds(&LatencySummary::p99_us), 2), " us, p999 ",
                   fixed(mean_over_seconds(&LatencySummary::p999_us), 2), " us"));
  report.note(strf("validity: load thread cpu share ", fixed(cpu_share, 3),
                   ", io thread busy share min ", fixed(busy_min, 3), " max ",
                   fixed(busy_max, 3)));
  if (cpu_share > kLoadThreadSaturated) {
    report.fail(strf("load thread saturated (cpu share ", fixed(cpu_share, 3), " > ",
                     kLoadThreadSaturated, "): the benchmark would measure itself"));
  }
  if (static_cast<int>(served->io_tids.size()) != kIoThreads) {
    report.fail(strf("expected ", kIoThreads, " io threads, found ", served->io_tids.size()));
  }

  // Stop serving before the checks and probes, which need all the CPUs.
  served->endpoint->stop();
  set_thread_cpus(0, cpus);
  AccuracyCheck acc = check_accuracy(reference);

  if (!opts.trace) {
    report.set("throughput_ops_s", tput, "ops/s");
    report.set("latency_p50_us", p50_us, "us");
    report.set("latency_p90_us", p90_us, "us");
    report.set("success_ratio",
               w.attempted ? static_cast<double>(w.attempted - w.failed) /
                                 static_cast<double>(w.attempted)
                           : 0,
               "ratio");
    report.set("setup_s", median_of(setup_s), "s");
    report.set("peak_rss_mb", peak_rss, "MB");
    report.set("aligned_accuracy", acc.accuracy, "ratio");
    report.set("residual_divergences", static_cast<double>(acc.residual), "count");
    std::filesystem::remove_all(opts.work_dir);
    return;
  }

  // Traced run: the per-layer ledger.
  SpanLog ledger;
  const Window& t = *traced;
  double traced_tput = static_cast<double>(t.attempted) / (static_cast<double>(t.wall_ns) / 1e9);
  double untraced_tput = static_cast<double>(w.attempted) / (static_cast<double>(w.wall_ns) / 1e9);
  std::uint64_t served_delta = w.after.requests_served - w.before.requests_served;
  report.set("server.writes_per_request",
             served_delta ? static_cast<double>(w.after.write_calls - w.before.write_calls) /
                                static_cast<double>(served_delta)
                          : 0,
             "count");
  report.set("server.connections_accepted", static_cast<double>(w.after.connections_accepted),
             "count");
  report.set("server.io_busy_share.min", busy_min, "ratio");
  report.set("server.io_busy_share.max", busy_max, "ratio");
  report.set("loadgen.cpu_share", cpu_share, "ratio");

  probe_pipeline(lce::docs::build_aws_catalog(), lce::synth::SynthesisOptions{}, ledger, report);
  ServingProbe probe;
  probe.pristine = &reference.backend();
  probe.traffic = script;
  probe.durable = durable;
  probe.threads = kContendedCallers;
  probe.work_dir = opts.work_dir + "/probe";
  double layer_sum_us = probe_serving(probe, ledger, report);
  probe_alignment(reference.backend(), kAlignWorkers, ledger, report);
  {
    // What `lce align aws --workers 2` does to the served spec: the full
    // repair loop, on a fresh copy so the probes above saw the served spec.
    auto fresh = lce::core::LearnedEmulator::from_docs(
        lce::docs::render_corpus(lce::docs::build_aws_catalog()));
    lce::cloud::ReferenceCloud cloud(lce::docs::build_aws_catalog());
    lce::align::AlignmentOptions aopts;
    aopts.workers = kAlignWorkers;
    std::int64_t t0 = now_ns();
    lce::align::AlignmentReport full = fresh.align_against(cloud, aopts);
    report_alignment({full}, {static_cast<double>(now_ns() - t0) / 1e6}, report);
  }

  if (durable) {
    // The measured run's own data dir: snapshot count, recovery of what it
    // left (checked against the live store), and a snapshot of its end state.
    lce::persist::PersistStatus st = served->persist->status();
    report.set("persist.snapshots", static_cast<double>(st.snapshots_taken), "count");
    lce::interp::Interpreter& live = served->emulator->backend();
    auto twin = live.clone();
    twin->reset();
    auto* twin_interp = static_cast<lce::interp::Interpreter*>(twin.get());
    std::int64_t r0 = now_ns();
    auto rec = lce::persist::recover_into(served->data_dir, twin_interp);
    std::int64_t r1 = now_ns();
    if (!rec.ok) report.fail("recovering the run's data dir failed: " + rec.error);
    if (lce::persist::serialize_store(twin_interp->store()) !=
        lce::persist::serialize_store(live.store())) {
      report.fail("recovered store differs from the served store");
    }
    std::string error;
    std::int64_t s0 = now_ns();
    if (!served->persist->take_snapshot(&error)) report.fail("snapshot failed: " + error);
    std::int64_t s1 = now_ns();
    report.set("persist.recover_ms", static_cast<double>(r1 - r0) / 1e6, "ms");
    report.set("persist.snapshot_ms", static_cast<double>(s1 - s0) / 1e6, "ms");
  }

  report.set("server.wire_residual_us", p50_us - layer_sum_us, "us");
  report.set("trace.layer_sum_us", layer_sum_us, "us");
  report.set("trace.overhead_share", 1.0 - traced_tput / untraced_tput, "ratio");
  report.note(strf("ledger: parse + decode + shipped stack + render = ", fixed(layer_sum_us, 2),
                   " us of the untraced p50 ", fixed(p50_us, 2), " us; the remaining ",
                   fixed(p50_us - layer_sum_us, 2),
                   " us is sockets, event loop and the client"));
  report.note(strf("tracing overhead: traced ", fixed(traced_tput, 0), " ops/s vs untraced ",
                   fixed(untraced_tput, 0), " ops/s"));
  for (const SpanStats& s : ledger.aggregate()) {
    report.note(strf("  span ", s.name, ": ", s.count, " x, median self ",
                     fixed(s.median_self_ns / 1e3, 3), " us"));
  }
  for (const SpanStats& s : load_spans.aggregate()) {
    report.note(strf("  span ", s.name, ": ", s.count, " x, median self ",
                     fixed(s.median_self_ns / 1e3, 3), " us"));
  }
  if (!opts.spans_out.empty()) {
    if (!ledger.write_json(opts.spans_out, 0) ||
        !load_spans.write_json(load_spans_path(opts.spans_out), 30000)) {
      report.fail("cannot write spans to " + opts.spans_out);
    }
  }
  served.reset();
  std::filesystem::remove_all(opts.work_dir);
}

void check_thread_budget(int load_threads, int io_threads, int align_workers,
                         Report& report) {
  int nproc = cpus_available();
  int need = load_threads + io_threads + align_workers;
  report.note(strf("thread budget: ", load_threads, " load + ", io_threads, " io + ",
                   align_workers, " align = ", need, " of nproc ", nproc));
  if (need > nproc) {
    report.fail(strf("thread budget ", need, " exceeds nproc ", nproc,
                     ": threads would contend for CPUs"));
  }
}

}  // namespace perfbench
