// The public entry point: a learned cloud emulator assembled end-to-end
// from documentation text (paper Fig. 2's workflow). Wraps the synthesis
// pipeline, the spec interpreter, and the alignment loop behind one
// object a DevOps-testing harness would instantiate.
//
//   auto docs = lce::docs::render_corpus(lce::docs::build_aws_catalog());
//   auto emu = lce::core::LearnedEmulator::from_docs(docs);
//   emu.backend().invoke({"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
//   emu.align_against(real_cloud);   // close the loop (§4.3)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "align/engine.h"
#include "interp/decoder.h"
#include "interp/interpreter.h"
#include "synth/synthesizer.h"

namespace lce::core {

struct PipelineOptions {
  synth::SynthesisOptions synthesis;
  /// Serve through the compiled execution plan (InterpreterOptions::
  /// use_plan); off = the tree-walking reference path, for debugging and
  /// differential testing.
  bool use_plan = true;
  std::string name = "learned-emulator";
  /// Defaults for align_against(cloud) — including `workers`, the
  /// differential-pass parallelism (0 = auto, 1 = serial).
  align::AlignmentOptions alignment;
};

class LearnedEmulator {
 public:
  /// Run the full synthesis pipeline over rendered documentation.
  static LearnedEmulator from_docs(const docs::DocCorpus& corpus,
                                   PipelineOptions opts = {});

  /// The emulator as a cloud backend (invoke APIs against it).
  interp::Interpreter& backend() { return *backend_; }
  const interp::Interpreter& backend() const { return *backend_; }

  /// Synthesis provenance: wrangling stats, noise, checks, logs.
  const synth::SynthesisResult& synthesis() const { return synthesis_; }

  /// Run the automated alignment loop against an oracle (§4.3). The
  /// backend's spec is repaired in place. The one-argument form uses
  /// PipelineOptions::alignment as defaults.
  align::AlignmentReport align_against(CloudBackend& cloud);
  align::AlignmentReport align_against(CloudBackend& cloud,
                                       align::AlignmentOptions opts);

  /// Alignment history (empty until align_against ran).
  const std::vector<align::AlignmentReport>& alignment_history() const {
    return alignment_history_;
  }

  /// API coverage against a ground-truth API list: how many of `apis` this
  /// emulator implements (Table 1 accounting).
  std::size_t covered(const std::vector<std::string>& apis) const;

 private:
  LearnedEmulator() = default;

  PipelineOptions opts_;
  synth::SynthesisResult synthesis_;
  std::unique_ptr<interp::Interpreter> backend_;
  std::vector<align::AlignmentReport> alignment_history_;
};

}  // namespace lce::core
