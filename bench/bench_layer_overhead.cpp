// Invoke-path overhead of the lce::stack layer chain (DESIGN.md "Backend
// layer stack"). A describe-heavy workload — the LocalStack steady state:
// DevOps tooling polls resource state far more often than it mutates it —
// runs against the reference cloud:
//
//   bare        the backend with no layers (baseline)
//   serialized  Serialize + Metrics, the default endpoint chain
//
// Reported: ns/op per configuration and the ratio over bare. The exit
// status enforces the acceptance budget: the default chain must stay
// under 2x bare.
//
// Flags: --quick (smaller workload for CI smoke), --json FILE (machine-
// readable results, uploaded as a CI artifact).
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/value.h"
#include "docs/corpus.h"
#include "server/json.h"
#include "stack/config.h"
#include "stack/layers.h"

using namespace lce;

namespace {

constexpr int kVpcs = 8;

/// Create kVpcs vpcs, then sweep DescribeVpc over them `rounds` times.
/// Returns ns per describe call.
double run_workload(CloudBackend& backend, int rounds) {
  std::vector<Value> ids;
  for (int i = 0; i < kVpcs; ++i) {
    auto r = backend.invoke(
        {"CreateVpc", {{"cidr_block", Value(strf("10.", i, ".0.0/16"))}}, ""});
    if (!r.ok) {
      std::cerr << "setup failed: " << r.to_text() << "\n";
      std::exit(1);
    }
    ids.push_back(*r.data.get("id"));
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const auto& id : ids) {
      auto r = backend.invoke({"DescribeVpc", {{"id", id}}, ""});
      if (!r.ok) {
        std::cerr << "describe failed: " << r.to_text() << "\n";
        std::exit(1);
      }
    }
  }
  double ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return ns / (static_cast<double>(rounds) * kVpcs);
}

double best_of(CloudBackend& backend, int reps, int rounds) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    backend.reset();
    double ns = run_workload(backend, rounds);
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "unknown bench flag: " << arg
                << "\nflags: --quick --json FILE\n";
      return 2;
    }
  }
  int rounds = quick ? 400 : 2000;
  int reps = quick ? 2 : 3;

  std::cout << "=== Layer stack overhead: describe-heavy invoke path ===\n";
  std::cout << "  workload: " << kVpcs << " vpcs, " << rounds
            << " DescribeVpc sweeps, best of " << reps << " runs\n\n";

  cloud::ReferenceCloud bare_cloud(docs::build_aws_catalog());
  double bare = best_of(bare_cloud, reps, rounds);

  cloud::ReferenceCloud serialized_cloud(docs::build_aws_catalog());
  stack::StackConfig default_cfg;
  default_cfg.validate = false;  // Serialize + Metrics, the budgeted pair
  stack::LayerStack serialized = stack::build_stack(serialized_cloud, default_cfg);
  double with_layers = best_of(serialized, reps, rounds);

  auto row = [&](const char* name, double ns) {
    return std::vector<std::string>{name, strf(static_cast<long>(ns)),
                                    strf(static_cast<long>(ns * 100 / bare), "%")};
  };
  TextTable table({"configuration", "ns/describe", "vs bare"});
  table.add_row(row("bare", bare));
  table.add_row(row("serialize+metrics", with_layers));
  std::cout << table.render() << "\n";

  bool overhead_ok = with_layers < 2.0 * bare;
  std::cout << "overhead budget (<2x bare): " << (overhead_ok ? "PASS" : "FAIL")
            << "\n";

  if (!json_path.empty()) {
    Value::Map root;
    root["bench"] = Value(std::string("layer_overhead"));
    root["quick"] = Value(quick);
    root["bare_ns_per_describe"] = Value(static_cast<std::int64_t>(bare));
    root["serialized_ns_per_describe"] = Value(static_cast<std::int64_t>(with_layers));
    root["overhead_budget_ok"] = Value(overhead_ok);
    root["pass"] = Value(overhead_ok);
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << server::to_json(Value(std::move(root))) << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return overhead_ok ? 0 : 1;
}
