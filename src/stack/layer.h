// The composable backend layer stack: cross-cutting concerns of the invoke
// path — serialization, validation, metrics, fault injection — factored
// into decorators over `CloudBackend` instead of
// being hard-wired into the HTTP service or scattered across consumers.
//
//   lce::stack::StackConfig cfg;           // see config.h
//   auto stack = lce::stack::build_stack(backend, cfg);
//   stack.invoke(req);                     // flows through every layer
//
// Two pieces:
//  - `BackendLayer`: a decorator base that forwards the whole CloudBackend
//    interface to an inner backend and clones the entire chain (layer state
//    AND inner backend) so layered backends keep working with the parallel
//    alignment executor's clone()-per-worker scheme.
//  - `LayerStack`: owns an ordered set of layers around a base backend and
//    is itself a CloudBackend, so a fully-layered emulator drops into any
//    harness (HTTP endpoint, alignment engine, benches) unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/api.h"

namespace lce::stack {

/// Decorator base over CloudBackend. Every operation forwards to the inner
/// backend by default; concrete layers override the operations they
/// intercept. A layer is attached to exactly one inner backend (non-owning
/// inside a LayerStack; owning after a clone()).
class BackendLayer : public CloudBackend {
 public:
  /// Short identity for /health chain reporting, e.g. "serialize".
  virtual std::string layer_name() const = 0;

  std::string name() const override { return inner().name(); }
  ApiResponse invoke(const ApiRequest& req) override { return inner().invoke(req); }
  void reset() override { inner().reset(); }
  bool supports(const std::string& api) const override { return inner().supports(api); }
  Value snapshot() const override { return inner().snapshot(); }
  /// A chain is as thread-safe as what it wraps: stock layers are all
  /// internally synchronized, so safety is decided by the base (or by a
  /// SerializeLayer, which overrides this to true for anything below it).
  bool thread_safe() const override { return inner().thread_safe(); }

  /// Clones the whole chain: the inner backend first (nullptr propagates,
  /// degrading callers to serial execution exactly like an uncloneable
  /// backend), then this layer's own state via clone_detached(). This is
  /// the fix for the old SerializedBackend silently forcing the parallel
  /// alignment executor into serial fallback by not forwarding clone().
  std::unique_ptr<CloudBackend> clone() const override;

  /// Attach to an inner backend the caller keeps alive (LayerStack does
  /// this for every pushed layer).
  void attach(CloudBackend& inner);
  /// Attach to an inner backend this layer now owns (clone chains).
  void attach_owned(std::unique_ptr<CloudBackend> inner);
  bool attached() const { return inner_ != nullptr; }

 protected:
  CloudBackend& inner();
  const CloudBackend& inner() const;

  /// Copy this layer's own state (counters, RNG position, cache, recorded
  /// trace) into a fresh, unattached layer. Non-copyable state is rebuilt:
  /// SerializeLayer returns a layer with a fresh mutex.
  virtual std::unique_ptr<BackendLayer> clone_detached() const = 0;

  friend class LayerStack;  // clones layers without re-cloning the chain

 private:
  CloudBackend* inner_ = nullptr;
  std::unique_ptr<CloudBackend> owned_;  // engaged only on cloned chains
};

/// An ordered pile of layers around a base backend; push() wraps the
/// current outermost, so the LAST pushed layer sees requests FIRST.
/// The stack is itself a CloudBackend and forwards every operation to the
/// outermost layer (or straight to the base when empty).
class LayerStack final : public CloudBackend {
 public:
  /// Wrap a base backend the caller keeps alive.
  explicit LayerStack(CloudBackend& base);
  /// Wrap and own the base backend (clone chains, handed-off backends).
  explicit LayerStack(std::unique_ptr<CloudBackend> base);

  LayerStack(LayerStack&&) = default;
  LayerStack& operator=(LayerStack&&) = default;
  LayerStack(const LayerStack&) = delete;
  LayerStack& operator=(const LayerStack&) = delete;

  /// Add `layer` as the new outermost; returns *this for chaining.
  LayerStack& push(std::unique_ptr<BackendLayer> layer);

  std::string name() const override { return outer().name(); }
  ApiResponse invoke(const ApiRequest& req) override { return outer().invoke(req); }
  void reset() override { outer().reset(); }
  bool supports(const std::string& api) const override { return outer().supports(api); }
  Value snapshot() const override { return outer().snapshot(); }
  bool thread_safe() const override { return outer().thread_safe(); }

  /// Clones base + every layer's state into an independent stack. Returns
  /// nullptr when the base cannot clone (same contract as CloudBackend).
  std::unique_ptr<CloudBackend> clone() const override;

  /// Layer identities, outermost first (the order a request traverses) —
  /// served in /health as the installed chain.
  std::vector<std::string> layer_names() const;

  std::size_t depth() const { return layers_.size(); }
  CloudBackend& base() { return *base_; }

  /// Outermost layer of concrete type L, nullptr when absent (how the
  /// HTTP service finds the MetricsLayer behind GET /metrics).
  template <typename L>
  L* find() {
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      if (auto* hit = dynamic_cast<L*>(it->get())) return hit;
    }
    return nullptr;
  }
  template <typename L>
  const L* find() const {
    return const_cast<LayerStack*>(this)->find<L>();
  }

 private:
  CloudBackend& outer();
  const CloudBackend& outer() const;

  CloudBackend* base_;
  std::unique_ptr<CloudBackend> owned_base_;       // engaged when owning
  std::vector<std::unique_ptr<BackendLayer>> layers_;  // [0] = innermost
};

}  // namespace lce::stack
