// Where the alignment loop's time goes, and how it scales with workers.
// For 1, 2 and 4 workers (plus the host's concurrency when larger) the
// bench runs the full repair loop on the learn-align configuration (AWS
// docs with defects at rate 0.12, seed 31337, synthesis noise 0.10) and
// reports each round's split: trace generation, the differential pass and
// repair, and how many traces each pass replayed (rounds after the first
// replay only what last round's repairs can change). Generation and the
// pass run on `workers` threads; repair is serial, because every repair
// edits the spec, recompiles the plan and re-verifies against it, so
// repair time bounds the speedup.
//
// Exit status reflects ONLY the determinism check: every worker count must
// produce a report byte-identical to the serial engine's. Timings are
// printed, never gated (a single-core host cannot show a speedup).
#include <algorithm>
#include <iostream>
#include <vector>

#include "align/engine.h"
#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"

using namespace lce;

namespace {

constexpr int kRepetitions = 3;

struct Phases {
  double gen = 0;
  double diff = 0;
  double repair = 0;
  double total() const { return gen + diff + repair; }
};

Phases phases_of(const align::RoundStats& r) {
  return {r.gen_wall_ms, r.diff_wall_ms, r.repair_wall_ms};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Per-phase medians over repetitions.
Phases median_of(const std::vector<Phases>& runs) {
  std::vector<double> gen, diff, repair;
  for (const Phases& p : runs) {
    gen.push_back(p.gen);
    diff.push_back(p.diff);
    repair.push_back(p.repair);
  }
  return {median(gen), median(diff), median(repair)};
}

std::string share(double part, double whole) {
  return strf(fixed(whole > 0 ? 100.0 * part / whole : 0, 0), "%");
}

}  // namespace

int main() {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(31337);
  auto plan = docs::inject_defects(defective, 0.12, rng);
  auto corpus = docs::render_corpus(defective);
  core::PipelineOptions popts;
  popts.synthesis.noise_rate = 0.10;

  int hw = ThreadPool::hardware_workers();
  std::vector<int> counts = {1, 2, 4};
  if (hw > 4) counts.push_back(hw);

  std::cout << "=== Parallel alignment: full repair loop, split by phase ===\n";
  std::cout << "  AWS catalog, " << plan.defects.size()
            << " injected doc defects, synthesis noise 0.10; hardware concurrency " << hw
            << "; median of " << kRepetitions << " runs per worker count\n\n";

  std::string serial_canon;
  bool all_identical = true;
  std::vector<Phases> totals;  // per worker count, summed over rounds
  for (int w : counts) {
    std::vector<std::vector<Phases>> per_round;  // [round][repetition]
    std::vector<Phases> summed;
    align::AlignmentReport report;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      cloud::ReferenceCloud cloud(docs::build_aws_catalog());
      auto emu = core::LearnedEmulator::from_docs(corpus, popts);
      align::AlignmentOptions opts;
      opts.workers = w;
      report = emu.align_against(cloud, opts);
      std::string canon = align::canonical_text(report);
      if (serial_canon.empty()) serial_canon = canon;
      all_identical = all_identical && canon == serial_canon;
      Phases sum;
      for (std::size_t i = 0; i < report.rounds.size(); ++i) {
        if (per_round.size() <= i) per_round.emplace_back();
        Phases p = phases_of(report.rounds[i]);
        per_round[i].push_back(p);
        sum.gen += p.gen;
        sum.diff += p.diff;
        sum.repair += p.repair;
      }
      summed.push_back(sum);
    }

    TextTable table(
        {"round", "traces", "replayed", "repairs", "gen ms", "diff ms", "repair ms"});
    for (std::size_t i = 0; i < per_round.size(); ++i) {
      Phases m = median_of(per_round[i]);
      table.add_row({std::to_string(i + 1), std::to_string(report.rounds[i].traces),
                     std::to_string(report.rounds[i].traces_replayed),
                     std::to_string(report.rounds[i].repairs), fixed(m.gen, 1),
                     fixed(m.diff, 1), fixed(m.repair, 1)});
    }
    totals.push_back(median_of(summed));
    std::cout << "workers=" << report.rounds[0].workers << ":\n"
              << table.render() << "\n";
  }

  const Phases& serial = totals.front();
  TextTable summary(
      {"workers", "gen ms", "diff ms", "repair ms", "total ms", "speedup", "report"});
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const Phases& t = totals[k];
    summary.add_row({std::to_string(counts[k]), fixed(t.gen, 1), fixed(t.diff, 1),
                     fixed(t.repair, 1), fixed(t.total(), 1),
                     strf(fixed(t.total() > 0 ? serial.total() / t.total() : 0, 2), "x"),
                     all_identical ? "identical" : "DIVERGED"});
  }
  std::cout << "=== Totals over all rounds ===\n" << summary.render();

  // The measured split, and the ceiling it implies: with generation and the
  // pass scaled perfectly, serial repair alone still takes `repair` ms.
  const Phases& four = totals[2];
  std::cout << "\nMeasured split at 1 worker: generation "
            << share(serial.gen, serial.total()) << ", differential pass "
            << share(serial.diff, serial.total()) << ", repair "
            << share(serial.repair, serial.total()) << " of " << fixed(serial.total(), 1)
            << " ms. At 4 workers generation takes " << fixed(four.gen, 1)
            << " ms and the pass " << fixed(four.diff, 1)
            << " ms; repair stays serial at " << fixed(four.repair, 1)
            << " ms, which caps the speedup at "
            << fixed(serial.repair > 0 ? serial.total() / serial.repair : 0, 2)
            << "x however many workers run (measured at 4: "
            << fixed(four.total() > 0 ? serial.total() / four.total() : 0, 2)
            << "x). Reports are " << (all_identical ? "byte-identical" : "NOT identical")
            << " at every worker count.\n";
  return all_identical ? 0 : 1;
}
