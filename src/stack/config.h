// Declarative stack construction: which layers to install, in the one
// canonical order. Consumers (the HTTP endpoint, the core pipeline, the
// CLI) carry a StackConfig instead of hand-wiring decorators.
//
// Canonical order, outermost (sees requests first) to innermost:
//
//   metrics -> fault -> validate -> journal -> record -> read_cache
//     -> serialize -> base
//
// Rationale: metrics observes everything including injected faults;
// faults fire at the front door before any real work; validation
// normalizes args so the journal logs (and the recorder captures)
// replayable calls and the cache keys canonical requests; the journal
// sits below validate so the WAL holds normalized calls but above the
// cache so cache hits are not journaled as writes; the read cache sits
// above serialize so cache hits never take the backend mutex; serialize
// is the innermost gate protecting single-threaded backends.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "stack/layers.h"

namespace lce::stack {

/// Whether to install the SerializeLayer compatibility gate.
///   kAuto  install only when the base backend reports thread_safe() ==
///          false — the sharded interpreter runs gate-free, while plain
///          single-threaded backends (the reference cloud, baselines)
///          keep the old whole-backend mutex. The default.
///   kOn    always install (forced compatibility / benchmarking the
///          serialized path).
///   kOff   never install — the caller guarantees the base is safe or
///          that access is single-threaded.
enum class SerializeMode { kAuto, kOn, kOff };

struct StackConfig {
  SerializeMode serialize = SerializeMode::kAuto;
  bool validate = true;
  bool metrics = true;
  bool read_cache = false;
  bool record = false;
  /// Engaged => install a FaultLayer seeded with this value.
  std::optional<std::uint64_t> fault_seed;
  FaultConfig fault;
  /// Engaged => the factory's layer is installed between validate and
  /// record. The durability subsystem (src/persist) injects its
  /// JournalLayer here, keeping lce_stack free of a persist dependency.
  std::function<std::unique_ptr<BackendLayer>()> journal;
};

/// Build the configured stack around a base backend the caller keeps
/// alive. An all-false config yields a zero-layer stack that forwards
/// straight to the base.
LayerStack build_stack(CloudBackend& base, const StackConfig& config = {});

/// Owning variant (clone chains, handed-off backends).
LayerStack build_stack(std::unique_ptr<CloudBackend> base,
                       const StackConfig& config = {});

}  // namespace lce::stack
