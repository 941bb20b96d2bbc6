// Differential execution: run a trace against the learned emulator and the
// cloud oracle, report the first response divergence, and shrink offending
// traces to the minimal API sequence still triggering the discrepancy
// (paper §4.3: "we leverage the SM abstraction to find the minimal API
// traces that could trigger the discrepancies").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "align/trace_gen.h"
#include "common/api.h"

namespace lce::align {

enum class DivergenceKind {
  kCloudErrEmuOk,     // missing emulator check
  kCloudOkEmuErr,     // spurious emulator check / wrong effect
  kErrorCodeMismatch, // both fail, different codes
  kPayloadMismatch,   // both succeed, different data
};

std::string to_string(DivergenceKind k);

struct Discrepancy {
  Trace trace;                 // (possibly shrunk) reproducer
  std::size_t call_index = 0;  // where the divergence appears
  DivergenceKind kind = DivergenceKind::kPayloadMismatch;
  ApiResponse cloud;
  ApiResponse emulator;
  SymbolicClass cls;           // the symbolic class that produced it

  std::string to_text() const;
};

/// Compare the responses of one replay of `gen` on each backend; the first
/// misaligned call becomes a Discrepancy (nullopt when fully aligned).
std::optional<Discrepancy> diff_responses(const GenTrace& gen,
                                          const std::vector<ApiResponse>& cloud,
                                          const std::vector<ApiResponse>& emulator);

/// Run `trace` on both backends and diff_responses() the results.
std::optional<Discrepancy> diff_trace(CloudBackend& cloud, CloudBackend& emulator,
                                      const GenTrace& gen);

/// Greedy delta-debugging shrink: drop calls (respecting "$k" placeholder
/// dependencies) while the SAME divergence kind persists at the final
/// diverging call. Returns the minimized discrepancy.
Discrepancy shrink(CloudBackend& cloud, CloudBackend& emulator, Discrepancy d);

}  // namespace lce::align
