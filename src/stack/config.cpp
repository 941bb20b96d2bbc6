#include "stack/config.h"

#include <utility>

namespace lce::stack {

namespace {

void push_layers(LayerStack& stack, const StackConfig& config,
                 bool base_thread_safe) {
  // push() wraps the current outermost, so push in inner-to-outer order
  // (the reverse of the request path documented in the header).
  bool serialize = config.serialize == SerializeMode::kOn ||
                   (config.serialize == SerializeMode::kAuto && !base_thread_safe);
  if (serialize) stack.push(std::make_unique<SerializeLayer>());
  if (config.read_cache) stack.push(std::make_unique<ReadCacheLayer>());
  if (config.record) stack.push(std::make_unique<RecordLayer>());
  if (config.journal) stack.push(config.journal());
  if (config.validate) stack.push(std::make_unique<ValidateLayer>());
  if (config.fault_seed) {
    stack.push(std::make_unique<FaultLayer>(*config.fault_seed, config.fault));
  }
  if (config.metrics) stack.push(std::make_unique<MetricsLayer>());
}

}  // namespace

LayerStack build_stack(CloudBackend& base, const StackConfig& config) {
  bool safe = base.thread_safe();
  LayerStack stack(base);
  push_layers(stack, config, safe);
  return stack;
}

LayerStack build_stack(std::unique_ptr<CloudBackend> base,
                       const StackConfig& config) {
  bool safe = base->thread_safe();
  LayerStack stack(std::move(base));
  push_layers(stack, config, safe);
  return stack;
}

}  // namespace lce::stack
