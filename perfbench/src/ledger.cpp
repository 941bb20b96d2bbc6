#include "ledger.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "align/parallel.h"
#include "align/trace_gen.h"
#include "cloud/reference_cloud.h"
#include "common/arena.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "docs/wrangler.h"
#include "interp/decoder.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "server/http.h"
#include "server/http_parser.h"
#include "server/json.h"
#include "spec/checks.h"
#include "stack/config.h"
#include "stack/layers.h"
#include "stats.h"

namespace perfbench {

using lce::ApiRequest;
using lce::ApiResponse;
using lce::CloudBackend;
using lce::Value;
using lce::interp::Interpreter;

namespace {

constexpr double kNsPerMs = 1e6;

/// Median duration of `reps` calls of `fn`, each recorded as a span named
/// `name` (op id = repetition). Returns nanoseconds.
template <typename Fn>
double timed_median(SpanLog& log, const char* name, int reps, Fn&& fn) {
  std::uint32_t id = log.intern(name);
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    std::int64_t t0 = now_ns();
    fn();
    std::int64_t t1 = now_ns();
    log.add(id, t0, t1, -1, static_cast<std::uint64_t>(r));
    ns.push_back(static_cast<double>(t1 - t0));
  }
  return median_of(std::move(ns));
}

/// Records a span around every invoke that passes through it; pushed
/// between the real layers so each real layer's cost is the self time of
/// the timing span directly above it.
class TimingLayer final : public lce::stack::BackendLayer {
 public:
  TimingLayer(SpanLog& log, std::uint32_t name, const std::uint64_t& op)
      : log_(log), name_(name), op_(op) {}
  std::string layer_name() const override { return "timing"; }
  ApiResponse invoke(const ApiRequest& req) override {
    ScopedSpan span(log_, name_, op_);
    return inner().invoke(req);
  }

 protected:
  std::unique_ptr<lce::stack::BackendLayer> clone_detached() const override {
    return std::make_unique<TimingLayer>(log_, name_, op_);
  }

 private:
  SpanLog& log_;
  std::uint32_t name_;
  const std::uint64_t& op_;
};

std::unique_ptr<Interpreter> fresh_copy(const Interpreter& pristine) {
  std::unique_ptr<CloudBackend> c = pristine.clone();
  return std::unique_ptr<Interpreter>(static_cast<Interpreter*>(c.release()));
}

double median_self(const std::vector<SpanStats>& stats, const std::string& name) {
  for (const SpanStats& s : stats) {
    if (s.name == name) return s.median_self_ns;
  }
  return 0;
}

std::unique_ptr<lce::persist::PersistManager> open_store(Interpreter& interp,
                                                         const std::string& dir,
                                                         Report& report) {
  std::filesystem::remove_all(dir);
  lce::persist::PersistOptions opts;
  opts.data_dir = dir;
  opts.snapshot_every = 10000;
  std::string error;
  auto mgr = lce::persist::PersistManager::open(interp, opts, &error);
  if (mgr == nullptr) report.fail("cannot open probe data dir " + dir + ": " + error);
  return mgr;
}

/// Describes of ids that were never created, one per resource type the
/// traffic describes: the error path of every workload, including those
/// whose traffic never fails.
std::vector<ApiRequest> missing_id_probes(const std::vector<Segment>& traffic) {
  std::vector<ApiRequest> out;
  std::vector<std::string> seen;
  for (const Segment& seg : traffic) {
    for (const ScriptOp& op : seg.ops) {
      if (op.api.rfind("Describe", 0) != 0 || op.target < 0) continue;
      if (std::find(seen.begin(), seen.end(), op.api) != seen.end()) continue;
      seen.push_back(op.api);
      const std::string& prefix = seg.ops[static_cast<std::size_t>(op.target)].mint_prefix;
      ApiRequest req;
      req.api = op.api;
      req.args["id"] = Value::ref(prefix + "-99999999");
      out.push_back(std::move(req));
    }
  }
  return out;
}

}  // namespace

void probe_pipeline(const lce::docs::CloudCatalog& catalog,
                    const lce::synth::SynthesisOptions& synthesis, SpanLog& log,
                    Report& report) {
  constexpr int kReps = 3;
  lce::docs::DocCorpus corpus;
  report.set("docs.render_ms",
             timed_median(log, "docs.render", kReps,
                          [&] { corpus = lce::docs::render_corpus(catalog); }) /
                 kNsPerMs,
             "ms");
  report.set("docs.wrangle_ms",
             timed_median(log, "docs.wrangle", kReps, [&] { lce::docs::wrangle(corpus); }) /
                 kNsPerMs,
             "ms");
  lce::synth::SynthesisResult result;
  report.set("synth.synthesize_ms",
             timed_median(log, "synth.synthesize", kReps,
                          [&] { result = lce::synth::synthesize(corpus, synthesis); }) /
                 kNsPerMs,
             "ms");
  report.set("synth.noise_events", static_cast<double>(result.noise.size()), "count");
  report.set("synth.regeneration_rounds", static_cast<double>(result.regeneration_rounds),
             "count");
  report.set("spec.check_ms",
             timed_median(log, "spec.check", kReps,
                          [&] { lce::spec::run_checks(result.spec); }) /
                 kNsPerMs,
             "ms");
  lce::interp::InterpreterOptions iopts;
  iopts.decoder = lce::interp::make_rich_decoder();
  std::uint32_t compile = log.intern("interp.compile");
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r) {
    lce::spec::SpecSet spec = result.spec.clone();
    std::int64_t t0 = now_ns();
    Interpreter interp(std::move(spec), iopts);
    std::int64_t t1 = now_ns();
    log.add(compile, t0, t1, -1, static_cast<std::uint64_t>(r));
    ms.push_back(static_cast<double>(t1 - t0) / kNsPerMs);
  }
  report.set("interp.compile_ms", median_of(ms), "ms");
}

double probe_serving(ServingProbe& probe, SpanLog& log, Report& report) {
  std::vector<Segment>& traffic = probe.traffic;
  std::uint64_t op = 0;
  auto next_op = [&] { return ++op; };

  // Shipped stack, one span per invoke; keep the responses for rendering.
  std::vector<ApiResponse> responses;
  {
    auto interp = fresh_copy(*probe.pristine);
    std::unique_ptr<lce::persist::PersistManager> mgr;
    lce::stack::StackConfig config;
    if (probe.durable) {
      mgr = open_store(*interp, probe.work_dir + "/shipped", report);
      if (mgr == nullptr) return 0;
      config.journal = [m = mgr.get()] {
        return std::make_unique<lce::persist::JournalLayer>(m);
      };
    }
    lce::stack::LayerStack stack = lce::stack::build_stack(*interp, config);
    std::uint32_t name = log.intern("stack.invoke");
    clear_slots(traffic);
    replay(traffic, 1, [&](const ScriptOp&, std::string_view, const ApiRequest& req) {
      ScopedSpan span(log, name, next_op());
      return stack.invoke(req);
    }, [&](Segment&, std::size_t, const ApiResponse& resp) { responses.push_back(resp); });
  }

  // Wire: parse, decode and render each op's bytes with the serving path's
  // own functions (decode under a request arena, as the endpoint does).
  std::vector<std::string> wires;
  clear_slots(traffic);
  replay(traffic, 1, [&](const ScriptOp&, std::string_view wire, const ApiRequest&) {
    wires.emplace_back(wire);
    return responses[wires.size() - 1];
  });
  {
    std::uint32_t parse = log.intern("server.parse");
    std::uint32_t decode = log.intern("server.json_decode");
    std::uint32_t render = log.intern("server.render");
    lce::server::HttpParser parser;
    lce::server::RequestView view;
    lce::Arena arena;
    std::string out;
    int width_hint = 3;
    for (std::size_t i = 0; i < wires.size(); ++i) {
      std::uint64_t id = next_op();
      std::int64_t t0 = now_ns();
      parser.feed(wires[i]);
      auto st = parser.next_view(view);
      std::int64_t t1 = now_ns();
      log.add(parse, t0, t1, -1, id);
      if (st != lce::server::ParseStatus::kRequest) {
        report.fail("HttpParser rejected a workload request");
        break;
      }
      std::string body(view.body);
      {
        lce::ArenaScope scope(arena);
        std::int64_t d0 = now_ns();
        auto doc = lce::server::parse_json(body);
        std::int64_t d1 = now_ns();
        log.add(decode, d0, d1, -1, id);
        if (!doc) report.fail("parse_json rejected a workload request");
      }
      arena.reset();
      const ApiResponse& resp = responses[i];
      Value reply = Value::empty_map();
      if (resp.ok) {
        reply.set("Data", resp.data);
      } else {
        Value err = Value::empty_map();
        err.set("Code", Value(resp.code));
        err.set("Message", Value(resp.message));
        reply.set("Error", std::move(err));
      }
      out.clear();
      std::int64_t r0 = now_ns();
      lce::server::ResponseWriter writer(out, width_hint);
      writer.begin(status_for(resp), true, true);
      lce::server::append_json(reply, writer.body());
      writer.finish();
      std::int64_t r1 = now_ns();
      log.add(render, r0, r1, -1, id);
    }
  }

  // Instrumented stack: base <- [journal] <- validate <- metrics, with a
  // timing layer above each. The journal runs on every workload so its
  // cost is known even where the shipped configuration has no data dir.
  std::uint64_t persist_records = 0, persist_bytes = 0, persist_auto_snapshots = 0;
  {
    auto interp = fresh_copy(*probe.pristine);
    auto mgr = open_store(*interp, probe.work_dir + "/instrumented", report);
    if (mgr == nullptr) return 0;
    lce::stack::LayerStack stack(*interp);
    stack.push(std::make_unique<TimingLayer>(log, log.intern("stack.base"), op));
    stack.push(std::make_unique<lce::persist::JournalLayer>(mgr.get()));
    stack.push(std::make_unique<TimingLayer>(log, log.intern("stack.journal"), op));
    stack.push(std::make_unique<lce::stack::ValidateLayer>());
    stack.push(std::make_unique<TimingLayer>(log, log.intern("stack.validate"), op));
    stack.push(std::make_unique<lce::stack::MetricsLayer>());
    stack.push(std::make_unique<TimingLayer>(log, log.intern("stack.metrics"), op));
    clear_slots(traffic);
    replay(traffic, 1, [&](const ScriptOp&, std::string_view, const ApiRequest& req) {
      next_op();
      return stack.invoke(req);
    });
    lce::persist::PersistStatus st = mgr->status();
    persist_records = st.wal_records;
    persist_bytes = st.wal_bytes;
    persist_auto_snapshots = st.snapshots_taken;
    auto twin = fresh_copy(*probe.pristine);
    std::string dir = probe.work_dir + "/instrumented";
    double recover_ns = timed_median(log, "persist.recover", 1, [&] {
      auto rec = lce::persist::recover_into(dir, twin.get());
      if (!rec.ok) report.fail("probe recovery failed: " + rec.error);
    });
    if (lce::persist::serialize_store(twin->store()) !=
        lce::persist::serialize_store(interp->store())) {
      report.fail("probe recovery did not reproduce the journaled store");
    }
    std::string error;
    double snapshot_ns = timed_median(log, "persist.snapshot", 1, [&] {
      if (!mgr->take_snapshot(&error)) report.fail("probe snapshot failed: " + error);
    });
    report.set("persist.recover_ms", recover_ns / kNsPerMs, "ms");
    report.set("persist.snapshot_ms", snapshot_ns / kNsPerMs, "ms");
  }
  report.set("persist.wal_records", static_cast<double>(persist_records), "count");
  report.set("persist.wal_bytes_per_write",
             persist_records ? static_cast<double>(persist_bytes) /
                                   static_cast<double>(persist_records)
                             : 0,
             "B");
  report.set("persist.snapshots", static_cast<double>(persist_auto_snapshots), "count");

  // Bare interpreter by op class, plus clone/reset of its end state.
  {
    auto interp = fresh_copy(*probe.pristine);
    std::uint32_t names[5] = {log.intern("interp.read"), log.intern("interp.write"),
                              log.intern("interp.create"), log.intern("interp.delete"),
                              log.intern("interp.error")};
    clear_slots(traffic);
    replay(traffic, 1, [&](const ScriptOp& sop, std::string_view, const ApiRequest& req) {
      ApiRequest bare = lce::stack::normalize_request(req);
      ScopedSpan span(log, names[static_cast<int>(sop.cls)], next_op());
      return interp->invoke(bare);
    });
    const std::vector<ApiRequest> missing = missing_id_probes(traffic);
    for (int rep = 0; rep < 20; ++rep) {
      for (const ApiRequest& req : missing) {
        ScopedSpan span(log, names[static_cast<int>(OpClass::kError)], next_op());
        if (interp->invoke(req).ok) report.fail(req.api + " of a missing id succeeded");
      }
    }
    report.set("interp.live_resources",
               static_cast<double>(interp->snapshot().as_map().size()), "count");
    std::uint32_t clone = log.intern("interp.clone");
    std::uint32_t reset = log.intern("interp.reset");
    std::vector<double> clone_ms, reset_us;
    for (int r = 0; r < 5; ++r) {
      std::int64_t t0 = now_ns();
      std::unique_ptr<CloudBackend> copy = interp->clone();
      std::int64_t t1 = now_ns();
      copy->reset();
      std::int64_t t2 = now_ns();
      log.add(clone, t0, t1, -1, next_op());
      log.add(reset, t1, t2, -1, op);
      clone_ms.push_back(static_cast<double>(t1 - t0) / kNsPerMs);
      reset_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
    report.set("interp.clone_ms", median_of(clone_ms), "ms");
    report.set("interp.reset_us", median_of(reset_us), "us");
  }

  // The reference cloud on the same traffic (its own ids).
  {
    lce::cloud::ReferenceCloud cloud(lce::docs::build_aws_catalog());
    std::uint32_t name = log.intern("cloud.invoke");
    clear_slots(traffic);
    replay(traffic, 1, [&](const ScriptOp&, std::string_view, const ApiRequest& req) {
      ApiRequest bare = lce::stack::normalize_request(req);
      ScopedSpan span(log, name, next_op());
      return cloud.invoke(bare);
    });
    report.set("cloud.clone_ms",
               timed_median(log, "cloud.clone", 5, [&] { cloud.clone(); }) / kNsPerMs, "ms");
  }

  // Shipped stack under as many concurrent callers as io threads, each on
  // its own segment (disjoint resources, as the connections are).
  {
    auto interp = fresh_copy(*probe.pristine);
    std::unique_ptr<lce::persist::PersistManager> mgr;
    lce::stack::StackConfig config;
    if (probe.durable) {
      mgr = open_store(*interp, probe.work_dir + "/contended", report);
      if (mgr == nullptr) return 0;
      config.journal = [m = mgr.get()] {
        return std::make_unique<lce::persist::JournalLayer>(m);
      };
    }
    lce::stack::LayerStack stack = lce::stack::build_stack(*interp, config);
    int threads = std::max(1, probe.threads);
    std::vector<double> per_thread_ns(static_cast<std::size_t>(threads), 0);
    std::vector<char> threw(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        try {
          std::vector<Segment> mine = {traffic[static_cast<std::size_t>(t) % traffic.size()]};
          clear_slots(mine);
          std::uint64_t calls = 0;
          std::int64_t busy = 0;
          replay(mine, 3, [&](const ScriptOp&, std::string_view, const ApiRequest& req) {
            std::int64_t t0 = now_ns();
            ApiResponse resp = stack.invoke(req);
            busy += now_ns() - t0;
            ++calls;
            return resp;
          });
          per_thread_ns[static_cast<std::size_t>(t)] =
              calls ? static_cast<double>(busy) / static_cast<double>(calls) : 0;
        } catch (const std::exception&) {
          threw[static_cast<std::size_t>(t)] = 1;
        }
      });
    }
    for (auto& th : pool) th.join();
    if (std::find(threw.begin(), threw.end(), 1) != threw.end()) {
      report.fail("a contended-invoke caller threw");
    }
    double sum = 0;
    for (double v : per_thread_ns) sum += v;
    report.set("stack.contended_invoke_ns", sum / threads, "ns");
  }
  std::filesystem::remove_all(probe.work_dir);

  std::vector<SpanStats> stats = log.aggregate();
  auto ns = [&](const char* name) { return median_self(stats, name); };
  report.set("server.parse_ns", ns("server.parse"), "ns");
  report.set("server.json_decode_ns", ns("server.json_decode"), "ns");
  report.set("server.render_ns", ns("server.render"), "ns");
  report.set("stack.invoke_ns", ns("stack.invoke"), "ns");
  report.set("stack.metrics_ns", ns("stack.metrics"), "ns");
  report.set("stack.validate_ns", ns("stack.validate"), "ns");
  report.set("stack.journal_ns", ns("stack.journal"), "ns");
  report.set("interp.invoke_ns.read", ns("interp.read"), "ns");
  report.set("interp.invoke_ns.write", ns("interp.write"), "ns");
  report.set("interp.invoke_ns.create", ns("interp.create"), "ns");
  report.set("interp.invoke_ns.delete", ns("interp.delete"), "ns");
  report.set("interp.invoke_ns.error", ns("interp.error"), "ns");
  report.set("cloud.invoke_ns", ns("cloud.invoke"), "ns");
  return (ns("server.parse") + ns("server.json_decode") + ns("stack.invoke") +
          ns("server.render")) /
         1e3;
}

void probe_alignment(const Interpreter& start, int workers, SpanLog& log, Report& report) {
  std::vector<lce::align::GenTrace> corpus;
  report.set("align.tracegen_ms",
             timed_median(log, "align.tracegen", 3,
                          [&] {
                            lce::align::TraceGenerator gen(start.spec());
                            corpus = gen.generate_all();
                          }) /
                 kNsPerMs,
             "ms");
  lce::cloud::ReferenceCloud cloud(lce::docs::build_aws_catalog());
  auto emu = fresh_copy(start);
  double serial = timed_median(log, "align.diff_pass_serial", 1, [&] {
    lce::align::ParallelExecutor exec(cloud, *emu, 1);
    exec.execute(corpus);
  });
  double parallel = timed_median(log, "align.diff_pass_parallel", 1, [&] {
    lce::align::ParallelExecutor exec(cloud, *emu, workers);
    exec.execute(corpus);
  });
  report.set("align.diff_pass_serial_ms", serial / kNsPerMs, "ms");
  report.set("align.parallel_efficiency",
             parallel > 0 ? serial / (parallel * std::max(1, workers)) : 0, "ratio");
}

void report_alignment(const std::vector<lce::align::AlignmentReport>& reports,
                      const std::vector<double>& align_ms, Report& report) {
  if (reports.empty()) return;
  const auto& first = reports.front();
  double tracegen_ms = report.value("align.tracegen_ms");
  std::vector<double> diff_per_round, repair;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    double diff = 0;
    for (const auto& r : reports[i].rounds) diff += r.diff_wall_ms;
    std::size_t rounds = reports[i].rounds.size();
    if (rounds) diff_per_round.push_back(diff / static_cast<double>(rounds));
    if (i < align_ms.size()) {
      repair.push_back(align_ms[i] - diff - tracegen_ms * static_cast<double>(rounds));
    }
  }
  report.set("align.traces", first.rounds.empty() ? 0 : static_cast<double>(first.rounds[0].traces),
             "count");
  report.set("align.rounds", static_cast<double>(first.rounds.size()), "count");
  report.set("align.repairs", static_cast<double>(first.repairs.size()), "count");
  report.set("align.discrepancies", static_cast<double>(first.total_discrepancies()), "count");
  report.set("align.diff_pass_ms", median_of(diff_per_round), "ms");
  report.set("align.repair_ms", median_of(repair), "ms");
}

}  // namespace perfbench
