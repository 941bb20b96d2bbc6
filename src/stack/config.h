// Declarative stack construction: which layers to install, in the one
// canonical order. Consumers (the HTTP endpoint, the CLI, the benches)
// carry a StackConfig instead of hand-wiring decorators.
//
// Canonical order, outermost (sees requests first) to innermost:
//
//   metrics -> fault -> validate -> journal -> serialize -> base
//
// Rationale: metrics observes everything including injected faults;
// faults fire at the front door before any real work; validation
// normalizes args so the journal logs replayable calls (a recording is a
// data dir that journals reads too); serialize is the innermost gate
// protecting single-threaded backends. It is installed exactly when the
// base reports thread_safe() == false (the reference cloud, baselines)
// and left out for the sharded interpreter; no setting overrides that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "stack/layers.h"

namespace lce::stack {

struct StackConfig {
  bool validate = true;
  bool metrics = true;
  /// Engaged => install a FaultLayer seeded with this value.
  std::optional<std::uint64_t> fault_seed;
  FaultConfig fault;
  /// Engaged => the factory's layer is installed between validate and
  /// serialize. The durability subsystem (src/persist) injects its
  /// JournalLayer here, keeping lce_stack free of a persist dependency.
  std::function<std::unique_ptr<BackendLayer>()> journal;
};

/// Build the configured stack around a base backend the caller keeps
/// alive. An all-false config over a thread-safe base yields a zero-layer
/// stack that forwards straight to the base.
LayerStack build_stack(CloudBackend& base, const StackConfig& config = {});

/// Owning variant (clone chains, handed-off backends).
LayerStack build_stack(std::unique_ptr<CloudBackend> base,
                       const StackConfig& config = {});

}  // namespace lce::stack
