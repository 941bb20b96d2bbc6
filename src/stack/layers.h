// The four stock layers (see layer.h for the decorator machinery and
// config.h for the canonical ordering):
//
//   SerializeLayer  mutex gate so single-threaded backends survive
//                   concurrent callers (replaces server::SerializedBackend)
//   ValidateLayer   wire-format normalization: id-shaped strings re-tagged
//                   as refs (moved out of server/service.cpp)
//   MetricsLayer    per-API call/error counters + latency histograms,
//                   snapshotable as a Value (GET /metrics)
//   FaultLayer      seeded, deterministic injection of throttling and
//                   internal errors — cloud-realistic chaos for clients
//
// Recording live traffic is journaling: `lce serve --record DIR` is a data
// dir that also logs reads (persist/journal.h), and the script conversion
// lives in persist::trace_from_records.
//
// Every stateful layer is internally thread-safe (its own mutex), because
// layers above SerializeLayer see concurrent callers.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "stack/layer.h"

namespace lce::stack {

/// True when `s` has our resource-id shape ("vpc-00000001"): a lowercase
/// dashed prefix followed by exactly 8 digits.
bool looks_like_resource_id(std::string_view s);

/// Re-tag id-shaped strings as refs, recursively through lists and maps.
Value retag_refs(const Value& v);

/// The normalization ValidateLayer applies: every id-shaped string in the
/// args (and the target) becomes a ref, mirroring how real cloud SDKs pass
/// ids as plain strings on the wire.
ApiRequest normalize_request(const ApiRequest& req);

/// Serializes every CloudBackend operation — including supports(), which
/// the old server::SerializedBackend left unlocked — behind one mutex.
class SerializeLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "serialize"; }

  std::string name() const override;
  ApiResponse invoke(const ApiRequest& req) override;
  void reset() override;
  bool supports(const std::string& api) const override;
  Value snapshot() const override;
  /// The gate's whole point: everything below it is serialized, so the
  /// chain from here down is safe for concurrent callers.
  bool thread_safe() const override { return true; }

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  mutable std::mutex mu_;
};

/// Stateless arg normalization (see normalize_request above).
class ValidateLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "validate"; }
  ApiResponse invoke(const ApiRequest& req) override;

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;
};

/// Per-API counters and latency histogram for one API (or the total row).
struct ApiMetrics {
  static constexpr std::size_t kBuckets = 6;  // le_100us .. le_1s, inf
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;       // responses with !ok (incl. injected faults)
  std::uint64_t total_us = 0;     // summed wall latency
  std::array<std::uint64_t, kBuckets> histogram{};

  void record(bool ok, std::uint64_t us);
  void merge(const ApiMetrics& o);
  Value to_value() const;
};

class MetricsLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "metrics"; }
  ApiResponse invoke(const ApiRequest& req) override;

  /// {"total": {...}, "per_api": {"CreateVpc": {...}, ...}} — each entry
  /// carries calls / errors / total_us / histogram{le_100us..inf}.
  Value metrics() const;

  std::uint64_t calls() const;
  std::uint64_t errors() const;

  /// Fold another layer's counters into this one (the parallel alignment
  /// executor aggregates per-worker metrics this way; summed counts are
  /// deterministic even though per-worker interleaving is not).
  void merge_from(const MetricsLayer& other);

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  mutable std::mutex mu_;
  ApiMetrics total_;
  std::map<std::string, ApiMetrics> by_api_;
};

/// Fault-injection knobs. With one uniform draw per invoke, the decision
/// sequence is a pure function of (seed, invoke index), which is what the
/// determinism tests pin down.
struct FaultConfig {
  double throttle_rate = 0.05;  // P(RequestLimitExceeded)
  double error_rate = 0.02;     // P(InternalError)
};

class FaultLayer final : public BackendLayer {
 public:
  explicit FaultLayer(std::uint64_t seed, FaultConfig cfg = {});

  std::string layer_name() const override { return "fault"; }
  ApiResponse invoke(const ApiRequest& req) override;
  /// reset() rewinds the fault sequence to the seed (a fresh account gets
  /// a fresh, but identical, run of luck) and forwards.
  void reset() override;

  std::uint64_t injected() const;

 protected:
  /// Clones carry the RNG *position*, so a cloned stack continues the
  /// exact fault sequence its original would have produced.
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  std::uint64_t seed_;
  FaultConfig cfg_;
  mutable std::mutex mu_;
  Rng rng_;
  std::uint64_t injected_ = 0;
};

}  // namespace lce::stack
