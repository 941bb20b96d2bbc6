// learn-align: an emulator developer's run. One op renders the AWS docs with
// seeded defects, synthesizes a spec under LLM-style noise, aligns it
// against the reference cloud with 2 differential workers and scores the
// Fig. 3 suite. No sockets, WAL or stack run; docs, synth, spec, align and
// cloud do all the work.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "cloud/reference_cloud.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "core/scenarios.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "ledger.h"
#include "spans.h"
#include "stack/config.h"
#include "stats.h"
#include "sysinfo.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lce::fixed;
using lce::strf;

// The pipeline's inputs are fixed, not seeded, so that accuracy and the
// residual divergence count are comparable from run to run: defect rate
// and seed as in the repository's alignment tests, noise rate 0.10.
constexpr double kDefectRate = 0.12;
constexpr std::uint64_t kDefectSeed = 31337;
constexpr double kNoiseRate = 0.10;
constexpr int kAlignWorkers = 2;
constexpr int kSetups = 15;

struct Setup {
  std::unique_ptr<lce::cloud::ReferenceCloud> cloud;
  lce::core::ScenarioSuite suite;
  lce::docs::CloudCatalog defective;
};

Setup make_setup() {
  Setup s;
  s.cloud = std::make_unique<lce::cloud::ReferenceCloud>(lce::docs::build_aws_catalog());
  s.suite = lce::core::fig3_aws_suite();
  s.defective = lce::docs::build_aws_catalog();
  lce::Rng rng(kDefectSeed);
  lce::docs::inject_defects(s.defective, kDefectRate, rng);
  return s;
}

lce::core::PipelineOptions pipeline_options() {
  lce::core::PipelineOptions p;
  p.synthesis.noise_rate = kNoiseRate;
  return p;
}

struct Outcome {
  std::string canonical;
  std::size_t residual = 0;
  double accuracy = 0;
  lce::align::AlignmentReport report;
  double align_ms = 0;
  std::optional<lce::core::LearnedEmulator> emulator;
};

/// One complete pipeline run. With `spans`, each stage is a child span of
/// one "op" span.
Outcome run_once(Setup& setup, SpanLog* spans, std::uint64_t op) {
  Outcome out;
  std::int32_t root = spans ? spans->open(spans->intern("op"), op) : -1;
  auto stage = [&](const char* name, auto&& fn) {
    if (spans == nullptr) return fn();
    ScopedSpan span(*spans, spans->intern(name), op);
    return fn();
  };
  lce::docs::DocCorpus corpus =
      stage("docs.render", [&] { return lce::docs::render_corpus(setup.defective); });
  out.emulator = stage("pipeline.from_docs", [&] {
    return lce::core::LearnedEmulator::from_docs(corpus, pipeline_options());
  });
  lce::align::AlignmentOptions aopts;
  aopts.workers = kAlignWorkers;
  std::int64_t t0 = now_ns();
  out.report = stage("align.run", [&] { return out.emulator->align_against(*setup.cloud, aopts); });
  out.align_ms = static_cast<double>(now_ns() - t0) / 1e6;
  out.accuracy = stage("fig3.score", [&] {
    return lce::core::score_accuracy(out.emulator->backend(), *setup.cloud, setup.suite)
        .overall.ratio();
  });
  if (spans) spans->close(root);
  out.canonical = lce::align::canonical_text(out.report);
  out.residual = out.report.unrepaired.size();
  return out;
}

struct Phase {
  std::vector<double> op_ms;
  std::vector<lce::align::AlignmentReport> reports;
  std::vector<double> align_ms;
  std::int64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t mismatches = 0;
};

/// Runs ops back to back until `seconds` have passed; every op is checked
/// against the warm-up op's outcome.
Phase measure(Setup& setup, double seconds, const Outcome& expect, SpanLog* spans,
              std::optional<lce::core::LearnedEmulator>* last) {
  Phase p;
  std::uint64_t cpu0 = self_cpu_ns();
  std::int64_t start = now_ns();
  std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t op = 0;
  while (now_ns() < deadline) {
    std::int64_t t0 = now_ns();
    Outcome o = run_once(setup, spans, ++op);
    p.op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (o.canonical != expect.canonical || o.residual != expect.residual ||
        o.accuracy != expect.accuracy || o.accuracy != 1.0) {
      ++p.mismatches;
    }
    p.reports.push_back(o.report);
    p.align_ms.push_back(o.align_ms);
    *last = std::move(o.emulator);
  }
  p.wall_ns = now_ns() - start;
  p.cpu_ns = self_cpu_ns() - cpu0;
  return p;
}

}  // namespace

void run_learn_align(const RunOptions& opts, Report& report) {
  check_thread_budget(0, 0, kAlignWorkers, report);
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();
    std::int64_t t0 = now_ns();
    setup = make_setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // The warm-up op fixes the expected outcome every measured op must repeat.
  Outcome expect = run_once(*setup, nullptr, 0);
  if (expect.accuracy != 1.0) {
    report.fail(strf("aligned emulator scores ", fixed(expect.accuracy * 12, 0),
                     "/12 on Fig. 3, expected 12/12"));
  }
  std::optional<lce::core::LearnedEmulator> last;
  double measure_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  Phase untraced = measure(*setup, measure_s, expect, nullptr, &last);
  double peak_rss = peak_rss_mb();
  SpanLog op_spans;
  std::optional<Phase> traced;
  if (opts.trace) traced = measure(*setup, measure_s, expect, &op_spans, &last);

  report.attempted = untraced.op_ms.size() + (traced ? traced->op_ms.size() : 0);
  report.failed = untraced.mismatches + (traced ? traced->mismatches : 0);
  std::vector<double> sorted = untraced.op_ms;
  std::sort(sorted.begin(), sorted.end());
  double p50_ms = nearest_rank(sorted, 50);
  double p90_ms = nearest_rank(sorted, 90);
  double tput = static_cast<double>(untraced.op_ms.size()) /
                (static_cast<double>(untraced.wall_ns) / 1e9);
  report.note(strf("workload learn-align seed ", opts.seed, ": closed loop, 1 pipeline run at a time, ",
                   kAlignWorkers, " differential workers, nproc ", cpus_available(),
                   "; defects rate ", kDefectRate, " seed ", kDefectSeed, ", noise rate ",
                   kNoiseRate));
  report.note(strf("measured ", fixed(static_cast<double>(untraced.wall_ns) / 1e9, 3), " s: ",
                   untraced.op_ms.size(), " runs, ", untraced.mismatches,
                   " mismatched; latency samples ", sorted.size(), ": p50 ", fixed(p50_ms, 1),
                   " ms, p90 ", fixed(p90_ms, 1), " ms (p90 rests on few samples)"));
  std::string each;
  for (double ms : untraced.op_ms) each += strf(" ", fixed(ms, 1));
  report.note("run times (ms):" + each);
  report.note(strf("alignment: ", expect.report.rounds.size(), " rounds, ",
                   expect.report.repairs.size(), " repairs, ", expect.residual,
                   " residual divergence(s); Fig. 3 ", fixed(expect.accuracy * 12, 0), "/12"));
  if (untraced.mismatches != 0) {
    report.fail("a pipeline run diverged from the warm-up run (canonical alignment report, "
                "residual divergences or Fig. 3 score)");
  }

  if (!opts.trace) {
    report.set("throughput_ops_s", tput, "ops/s");
    report.set("latency_p50_us", p50_ms * 1e3, "us");
    report.set("latency_p90_us", p90_ms * 1e3, "us");
    report.set("success_ratio",
               static_cast<double>(untraced.op_ms.size() - untraced.mismatches) /
                   static_cast<double>(untraced.op_ms.size()),
               "ratio");
    report.set("setup_s", median_of(setup_s), "s");
    report.set("peak_rss_mb", peak_rss, "MB");
    report.set("aligned_accuracy", expect.accuracy, "ratio");
    report.set("residual_divergences", static_cast<double>(expect.residual), "count");
    return;
  }

  // Traced run: the per-layer ledger.
  const Phase& t = *traced;
  double traced_tput =
      static_cast<double>(t.op_ms.size()) / (static_cast<double>(t.wall_ns) / 1e9);
  SpanLog ledger;
  probe_pipeline(setup->defective, pipeline_options().synthesis, ledger, report);
  {
    // The pre-alignment emulator, for the differential pass probes.
    auto start = lce::core::LearnedEmulator::from_docs(
        lce::docs::render_corpus(setup->defective), pipeline_options());
    probe_alignment(start.backend(), kAlignWorkers, ledger, report);
  }
  report_alignment(t.reports, t.align_ms, report);

  // What serving the aligned emulator would cost, on a seeded agent mix.
  lce::interp::Interpreter& aligned = last->backend();
  aligned.reset();
  ServingProbe probe;
  probe.traffic = make_script(ScriptKind::kAgentDescribe, opts.seed, 2);
  {
    auto copy = aligned.clone();
    lce::stack::LayerStack stack = lce::stack::build_stack(*copy);
    std::string problem = derive_expectations(probe.traffic, stack);
    if (!problem.empty()) report.fail("aligned emulator on the agent mix: " + problem);
  }
  probe.pristine = &aligned;
  probe.threads = 2;
  probe.work_dir = opts.work_dir + "/probe";
  double serving_sum_us = probe_serving(probe, ledger, report);
  std::filesystem::remove_all(opts.work_dir);

  report.set("server.writes_per_request", 0, "count");
  report.set("server.connections_accepted", 0, "count");
  report.set("server.io_busy_share.min", 0, "ratio");
  report.set("server.io_busy_share.max", 0, "ratio");
  report.set("server.wire_residual_us", p50_ms * 1e3 - serving_sum_us, "us");
  report.set("loadgen.cpu_share",
             static_cast<double>(untraced.cpu_ns) / static_cast<double>(untraced.wall_ns),
             "ratio");

  double layer_sum_ms = 0;
  for (const SpanStats& s : op_spans.aggregate()) {
    if (s.name != "op") layer_sum_ms += s.median_self_ns / 1e6;
  }
  report.set("trace.layer_sum_us", layer_sum_ms * 1e3, "us");
  report.set("trace.overhead_share", tput > 0 ? 1.0 - traced_tput / tput : 0, "ratio");
  report.note(strf("ledger: docs.render + pipeline.from_docs + align.run + fig3.score = ",
                   fixed(layer_sum_ms, 1), " ms of the untraced p50 ", fixed(p50_ms, 1), " ms"));
  report.note(strf("tracing overhead: traced ", fixed(traced_tput, 3), " runs/s vs untraced ",
                   fixed(tput, 3), " runs/s"));
  for (const SpanLog* log : {&op_spans, &ledger}) {
    for (const SpanStats& s : log->aggregate()) {
      report.note(strf("  span ", s.name, ": ", s.count, " x, median self ",
                       fixed(s.median_self_ns / 1e3, 3), " us"));
    }
  }
  if (!opts.spans_out.empty()) {
    if (!ledger.write_json(opts.spans_out, 0) ||
        !op_spans.write_json(load_spans_path(opts.spans_out), 0)) {
      report.fail("cannot write spans to " + opts.spans_out);
    }
  }
}

}  // namespace perfbench
