#include "core/emulator.h"

namespace lce::core {

LearnedEmulator LearnedEmulator::from_docs(const docs::DocCorpus& corpus,
                                           PipelineOptions opts) {
  LearnedEmulator e;
  e.opts_ = opts;
  e.synthesis_ = synth::synthesize(corpus, opts.synthesis);
  interp::InterpreterOptions iopts;
  iopts.name = opts.name;
  iopts.use_plan = opts.use_plan;
  // Error messages carry root-cause hints (§4.3's "richer" replies).
  iopts.decoder = interp::make_rich_decoder();
  e.backend_ = std::make_unique<interp::Interpreter>(e.synthesis_.spec.clone(), iopts);
  return e;
}

align::AlignmentReport LearnedEmulator::align_against(CloudBackend& cloud) {
  return align_against(cloud, opts_.alignment);
}

align::AlignmentReport LearnedEmulator::align_against(CloudBackend& cloud,
                                                      align::AlignmentOptions opts) {
  align::AlignmentEngine engine(*backend_, cloud, opts);
  align::AlignmentReport report = engine.run();
  alignment_history_.push_back(report);
  return report;
}

std::size_t LearnedEmulator::covered(const std::vector<std::string>& apis) const {
  std::size_t n = 0;
  for (const auto& api : apis) {
    if (backend_->supports(api)) ++n;
  }
  return n;
}

}  // namespace lce::core
