// The per-layer cost ledger of the traced run. Every number comes from
// timing the benchmark's own calls into a module's public functions, on
// the workload's own inputs (outside-in: no file of the program changes).
// Stack layers are timed by TimingLayers pushed between the real layers
// through the public LayerStack::push seam; a layer's cost is the self
// time of the span directly above it.
#pragma once

#include <string>
#include <vector>

#include "align/engine.h"
#include "docs/model.h"
#include "interp/interpreter.h"
#include "report.h"
#include "script.h"
#include "spans.h"
#include "synth/synthesizer.h"

namespace perfbench {

/// docs -> wrangle -> synthesis -> checks -> plan compile, each timed on its
/// own: docs.*, synth.*, spec.check_ms, interp.compile_ms.
void probe_pipeline(const lce::docs::CloudCatalog& catalog,
                    const lce::synth::SynthesisOptions& synthesis, SpanLog& log,
                    Report& report);

struct ServingProbe {
  /// The emulator whose serving cost is measured, in its pristine state
  /// (empty store); probes clone it.
  const lce::interp::Interpreter* pristine = nullptr;
  /// The workload's traffic, expectations already derived.
  std::vector<Segment> traffic;
  /// The shipped stack of the workload journals (--data-dir).
  bool durable = false;
  /// Concurrent callers for stack.contended_invoke_ns (the io threads).
  int threads = 1;
  /// Directory for the probe's data dirs.
  std::string work_dir;
};

/// Wire, stack, interpreter, persistence and reference-cloud costs of
/// serving `probe.traffic`: server.{parse,json_decode,render}_ns, stack.*,
/// interp.invoke_ns.*, interp.{reset_us,clone_ms,live_resources},
/// persist.*, cloud.*. Returns the per-op layer sum in microseconds
/// (parse + decode + shipped stack + render).
double probe_serving(ServingProbe& probe, SpanLog& log, Report& report);

/// The alignment loop's costs for an emulator in its pre-alignment state:
/// align.tracegen_ms and align.diff_pass_serial_ms / parallel_efficiency
/// against a `workers`-wide pass over the same corpus.
void probe_alignment(const lce::interp::Interpreter& start, int workers, SpanLog& log,
                     Report& report);

/// Per-round counters of alignment reports: align.traces, .rounds,
/// .repairs, .discrepancies, .diff_pass_ms (mean per round) and
/// .repair_ms (alignment wall time not spent generating traces or in the
/// differential pass; `align_ms` per report, `tracegen_ms` per round).
void report_alignment(const std::vector<lce::align::AlignmentReport>& reports,
                      const std::vector<double>& align_ms, Report& report);

}  // namespace perfbench
