#include "stack/layers.h"

#include <cctype>
#include <chrono>
#include <utility>

#include "common/errors.h"

namespace lce::stack {

bool looks_like_resource_id(std::string_view s) {
  std::size_t dash = s.rfind('-');
  if (dash == std::string_view::npos || dash == 0 || dash + 9 != s.size()) return false;
  for (std::size_t i = 0; i < dash; ++i) {
    char c = s[i];
    if (!std::islower(static_cast<unsigned char>(c)) && c != '-' && c != '_') return false;
  }
  for (std::size_t i = dash + 1; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

Value retag_refs(const Value& v) {
  if (v.is_str() && looks_like_resource_id(v.as_str())) return Value::ref(v.as_str());
  if (v.is_list()) {
    Value::List out;
    for (const auto& e : v.as_list()) out.push_back(retag_refs(e));
    return Value(std::move(out));
  }
  if (v.is_map()) {
    Value::Map out;
    for (const auto& [k, e] : v.as_map()) out.emplace(k, retag_refs(e));
    return Value(std::move(out));
  }
  return v;
}

ApiRequest normalize_request(const ApiRequest& req) {
  ApiRequest out;
  out.api = req.api;
  out.target = req.target;
  for (const auto& [k, v] : req.args) out.args[k] = retag_refs(v);
  return out;
}

// ---------------------------------------------------------------- serialize

std::string SerializeLayer::name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().name();
}

ApiResponse SerializeLayer::invoke(const ApiRequest& req) {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().invoke(req);
}

void SerializeLayer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  inner().reset();
}

bool SerializeLayer::supports(const std::string& api) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().supports(api);
}

Value SerializeLayer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().snapshot();
}

std::unique_ptr<BackendLayer> SerializeLayer::clone_detached() const {
  return std::make_unique<SerializeLayer>();  // fresh mutex, no shared state
}

// ----------------------------------------------------------------- validate

ApiResponse ValidateLayer::invoke(const ApiRequest& req) {
  return inner().invoke(normalize_request(req));
}

std::unique_ptr<BackendLayer> ValidateLayer::clone_detached() const {
  return std::make_unique<ValidateLayer>();
}

// ------------------------------------------------------------------ metrics

void ApiMetrics::record(bool ok, std::uint64_t us) {
  ++calls;
  if (!ok) ++errors;
  total_us += us;
  std::size_t bucket = 0;
  for (std::uint64_t bound = 100; bucket + 1 < kBuckets && us >= bound;
       bound *= 10) {
    ++bucket;  // 100us, 1ms, 10ms, 100ms, 1s boundaries
  }
  ++histogram[bucket];
}

void ApiMetrics::merge(const ApiMetrics& o) {
  calls += o.calls;
  errors += o.errors;
  total_us += o.total_us;
  for (std::size_t i = 0; i < kBuckets; ++i) histogram[i] += o.histogram[i];
}

Value ApiMetrics::to_value() const {
  static constexpr const char* kBucketNames[kBuckets] = {
      "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "inf"};
  Value::Map hist;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    hist[kBucketNames[i]] = Value(static_cast<std::int64_t>(histogram[i]));
  }
  Value::Map out;
  out["calls"] = Value(static_cast<std::int64_t>(calls));
  out["errors"] = Value(static_cast<std::int64_t>(errors));
  out["total_us"] = Value(static_cast<std::int64_t>(total_us));
  out["latency_histogram"] = Value(std::move(hist));
  return Value(std::move(out));
}

ApiResponse MetricsLayer::invoke(const ApiRequest& req) {
  auto t0 = std::chrono::steady_clock::now();
  ApiResponse resp = inner().invoke(req);
  auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  std::lock_guard<std::mutex> lock(mu_);
  total_.record(resp.ok, us);
  by_api_[req.api].record(resp.ok, us);
  return resp;
}

Value MetricsLayer::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  Value::Map per_api;
  for (const auto& [api, m] : by_api_) per_api[api] = m.to_value();
  Value::Map out;
  out["total"] = total_.to_value();
  out["per_api"] = Value(std::move(per_api));
  return Value(std::move(out));
}

std::uint64_t MetricsLayer::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_.calls;
}

std::uint64_t MetricsLayer::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_.errors;
}

void MetricsLayer::merge_from(const MetricsLayer& other) {
  // Copy out first: locking both in one scope risks deadlock by ordering.
  ApiMetrics other_total;
  std::map<std::string, ApiMetrics> other_by_api;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_total = other.total_;
    other_by_api = other.by_api_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  total_.merge(other_total);
  for (const auto& [api, m] : other_by_api) by_api_[api].merge(m);
}

std::unique_ptr<BackendLayer> MetricsLayer::clone_detached() const {
  auto copy = std::make_unique<MetricsLayer>();
  std::lock_guard<std::mutex> lock(mu_);
  copy->total_ = total_;
  copy->by_api_ = by_api_;
  return copy;
}

// -------------------------------------------------------------------- fault

FaultLayer::FaultLayer(std::uint64_t seed, FaultConfig cfg)
    : seed_(seed), cfg_(cfg), rng_(seed) {}

ApiResponse FaultLayer::invoke(const ApiRequest& req) {
  // Exactly one draw per invoke: the fault sequence is indexed by invoke
  // count, independent of API name or argument content.
  double u;
  {
    std::lock_guard<std::mutex> lock(mu_);
    u = rng_.unit();
    if (u < cfg_.throttle_rate + cfg_.error_rate) ++injected_;
  }
  if (u < cfg_.throttle_rate) {
    return ApiResponse::failure(
        std::string(errc::kRequestLimitExceeded),
        ErrorRegistry::instance().render_message(errc::kRequestLimitExceeded,
                                                 {{"api", req.api}}));
  }
  if (u < cfg_.throttle_rate + cfg_.error_rate) {
    return ApiResponse::failure(
        std::string(errc::kInternalError),
        ErrorRegistry::instance().render_message(errc::kInternalError, {}));
  }
  return inner().invoke(req);
}

void FaultLayer::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    rng_ = Rng(seed_);
    injected_ = 0;
  }
  inner().reset();
}

std::uint64_t FaultLayer::injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

std::unique_ptr<BackendLayer> FaultLayer::clone_detached() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto copy = std::make_unique<FaultLayer>(seed_, cfg_);
  copy->rng_ = rng_;
  copy->injected_ = injected_;
  return copy;
}

}  // namespace lce::stack
