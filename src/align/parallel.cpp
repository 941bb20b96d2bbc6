#include "align/parallel.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "stack/layers.h"

namespace lce::align {

namespace {

/// One trace's full differential replay against a (cloud, emulator) pair:
/// one run on each backend. Pure function of the pair's behaviour:
/// run_trace resets the backend before replaying, so outcomes do not
/// depend on which worker (or which clone) executes them.
TraceOutcome replay_one(CloudBackend& cloud, CloudBackend& emulator,
                        const GenTrace& g) {
  std::vector<ApiResponse> cloud_resp = run_trace(cloud, g.trace);
  std::vector<ApiResponse> emu_resp = run_trace(emulator, g.trace);
  TraceOutcome out;
  if (auto d = diff_responses(g, cloud_resp, emu_resp)) {
    out.discrepancy = std::make_unique<Discrepancy>(std::move(*d));
  }
  // Sweep and happy-path probes additionally contribute the cloud's
  // outcome to the engine's enum-precondition evidence.
  bool wants_outcome =
      (g.cls.kind == ClassKind::kStateSweep || g.cls.kind == ClassKind::kHappyPath) &&
      g.probe_call < g.trace.calls.size();
  if (wants_outcome) {
    out.have_probe_outcome = true;
    out.probe_outcome =
        cloud_resp[g.probe_call].ok ? "" : cloud_resp[g.probe_call].code;
  }
  return out;
}

}  // namespace

ParallelExecutor::ParallelExecutor(CloudBackend& cloud, CloudBackend& emulator,
                                   int workers, bool collect_metrics)
    : cloud_(cloud), emu_(emulator), workers_(workers),
      collect_metrics_(collect_metrics) {}

std::vector<TraceOutcome> ParallelExecutor::execute(
    const std::vector<GenTrace>& traces) {
  std::vector<std::size_t> all(traces.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<TraceOutcome> out(traces.size());
  execute(traces, all, out);
  return out;
}

void ParallelExecutor::execute(const std::vector<GenTrace>& traces,
                               const std::vector<std::size_t>& indices,
                               std::vector<TraceOutcome>& out) {
  metrics_ = Value();

  int w = workers_ > 0 ? workers_ : ThreadPool::hardware_workers();
  w = std::min<int>(w, static_cast<int>(indices.size()));
  w = std::max(w, 1);

  // Per-worker backend clones. Each worker owns one independent pair, so
  // replays never contend; a backend that cannot clone forces serial mode.
  std::vector<std::pair<std::unique_ptr<CloudBackend>, std::unique_ptr<CloudBackend>>>
      pairs;
  if (w > 1) {
    for (int i = 0; i < w; ++i) {
      auto c = cloud_.clone();
      auto e = emu_.clone();
      if (!c || !e) {
        pairs.clear();
        w = 1;
        break;
      }
      pairs.emplace_back(std::move(c), std::move(e));
    }
  }
  effective_ = w;

  // Per-worker observability: each worker's pair is wrapped in its own
  // MetricsLayer (no cross-worker contention); counters merge after the
  // barrier. The layers forward every call unchanged, so replay behaviour
  // — and therefore the determinism contract — is untouched.
  std::vector<std::unique_ptr<stack::MetricsLayer>> cloud_metrics;
  std::vector<std::unique_ptr<stack::MetricsLayer>> emu_metrics;
  auto wrap = [&](CloudBackend& c, CloudBackend& e) {
    cloud_metrics.push_back(std::make_unique<stack::MetricsLayer>());
    cloud_metrics.back()->attach(c);
    emu_metrics.push_back(std::make_unique<stack::MetricsLayer>());
    emu_metrics.back()->attach(e);
  };

  if (w <= 1) {
    CloudBackend* c = &cloud_;
    CloudBackend* e = &emu_;
    if (collect_metrics_) {
      wrap(*c, *e);
      c = cloud_metrics.back().get();
      e = emu_metrics.back().get();
    }
    for (std::size_t i : indices) out[i] = replay_one(*c, *e, traces[i]);
  } else {
    ThreadPool pool(w);
    for (int k = 0; k < w; ++k) {
      CloudBackend* c = pairs[static_cast<std::size_t>(k)].first.get();
      CloudBackend* e = pairs[static_cast<std::size_t>(k)].second.get();
      if (collect_metrics_) {
        wrap(*c, *e);
        c = cloud_metrics.back().get();
        e = emu_metrics.back().get();
      }
      pool.submit([&, c, e, k] {
        // Stride sharding: worker k owns indices k, k+w, k+2w, ... Disjoint
        // result slots mean no synchronisation on the output vector.
        for (std::size_t n = static_cast<std::size_t>(k); n < indices.size();
             n += static_cast<std::size_t>(w)) {
          out[indices[n]] = replay_one(*c, *e, traces[indices[n]]);
        }
      });
    }
    pool.wait();
  }

  if (collect_metrics_) {
    stack::MetricsLayer cloud_total;
    stack::MetricsLayer emu_total;
    for (const auto& m : cloud_metrics) cloud_total.merge_from(*m);
    for (const auto& m : emu_metrics) emu_total.merge_from(*m);
    metrics_ = Value(Value::Map{{"cloud", cloud_total.metrics()},
                                {"emulator", emu_total.metrics()}});
  }
}

}  // namespace lce::align
