// Byte-level pins of the alignment loop against committed goldens in
// tests/align/golden/: the learn-align configuration's canonical report,
// and a per-machine digest of its round-1 symbolic trace corpus. The
// determinism suites compare worker counts of one build with each other;
// these compare every build with the same recorded bytes, so a change
// that alters the corpus or the repairs identically at every worker count
// still fails here.
//
// On a mismatch the actual text is written to <golden name>.actual in the
// test's working directory. Copy it over the golden only when the change
// in behaviour is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "align/engine.h"
#include "align/trace_gen.h"
#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"

#ifndef LCE_ALIGN_GOLDEN_DIR
#error "golden_test requires LCE_ALIGN_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace lce::align {
namespace {

/// The learn-align configuration: AWS docs with defects at rate 0.12
/// (seed 31337), synthesis noise 0.10, the default full repair loop.
core::LearnedEmulator learn_align_emulator() {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(31337);
  docs::inject_defects(defective, 0.12, rng);
  core::PipelineOptions popts;
  popts.synthesis.noise_rate = 0.10;
  return core::LearnedEmulator::from_docs(docs::render_corpus(defective), popts);
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(LCE_ALIGN_GOLDEN_DIR) + "/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  std::string want = read_golden(name);
  if (actual == want) return;
  std::ofstream(name + ".actual") << actual;
  ADD_FAILURE() << "output differs from golden " << name << " (" << actual.size()
                << " vs " << want.size() << " bytes); actual written to " << name
                << ".actual";
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One line per machine, in corpus order: its trace count and an FNV-1a
/// digest over each trace's label, class kind, probe index and calls.
/// A last line carries the generator's class counters.
std::string corpus_digest(const std::vector<GenTrace>& traces, const GenStats& stats) {
  std::string out;
  std::string machine;
  std::size_t count = 0;
  std::uint64_t h = 0;
  auto flush = [&] {
    if (count != 0) out += strf(machine, " traces=", count, " digest=", h, "\n");
  };
  for (const GenTrace& g : traces) {
    if (count == 0 || g.cls.machine != machine) {
      flush();
      machine = g.cls.machine;
      count = 0;
      h = 14695981039346656037ull;
    }
    ++count;
    h = fnv1a(h,
              strf(g.trace.label, "|", to_string(g.cls.kind), "|", g.probe_call, "\n"));
    for (const ApiRequest& call : g.trace.calls) h = fnv1a(h, call.to_text() + "\n");
  }
  flush();
  out += strf("total traces=", traces.size(), " classes=", stats.classes_total,
              " concretized=", stats.classes_concretized,
              " skipped=", stats.skipped.size(), "\n");
  return out;
}

TEST(AlignmentGolden, LearnAlignCanonicalReportMatchesGolden) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    auto emu = learn_align_emulator();
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    AlignmentOptions opts;
    opts.workers = workers;
    expect_golden("learn_align_canonical.txt",
                  canonical_text(emu.align_against(cloud, opts)));
  }
}

TEST(AlignmentGolden, RoundOneCorpusDigestMatchesGolden) {
  auto emu = learn_align_emulator();
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    TraceGenerator gen(emu.backend().spec());
    std::vector<GenTrace> traces = gen.generate_all(workers);
    expect_golden("learn_align_round1_corpus.txt", corpus_digest(traces, gen.stats()));
  }
}

}  // namespace
}  // namespace lce::align
