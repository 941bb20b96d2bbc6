#include "align/trace_gen.h"

#include <gtest/gtest.h>

#include <set>

#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "interp/interpreter.h"
#include "spec/parser.h"
#include "synth/synthesizer.h"

namespace lce::align {
namespace {

const spec::SpecSet& aws_spec() {
  static const spec::SpecSet kSpec = [] {
    auto r = synth::synthesize(docs::render_corpus(docs::build_aws_catalog()), {});
    return std::move(r.spec);
  }();
  return kSpec;
}

TEST(TraceGen, HappyPathForCreateSubnetBuildsDependencyChain) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("Subnet", "CreateSubnet");
  ASSERT_FALSE(traces.empty());
  const GenTrace* happy = nullptr;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kHappyPath) happy = &g;
  }
  ASSERT_NE(happy, nullptr);
  // Setup must create the Vpc before the subnet probe.
  ASSERT_GE(happy->trace.calls.size(), 2u);
  EXPECT_EQ(happy->trace.calls[0].api, "CreateVpc");
  EXPECT_EQ(happy->trace.calls[happy->probe_call].api, "CreateSubnet");
}

TEST(TraceGen, ViolationClassPerAssert) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("Subnet", "CreateSubnet");
  std::size_t violations = 0;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kAssertViolation) ++violations;
  }
  // CreateSubnet has >= 5 asserts (exists, cidr valid, prefix, within,
  // overlap, zone); most must concretize.
  EXPECT_GE(violations, 4u);
}

TEST(TraceGen, HappyPathsSucceedOnTheEmulator) {
  // Every happy-path trace must run cleanly on the emulator that generated
  // it. (On the cloud, happy paths may legitimately diverge — that is the
  // undocumented behaviour alignment exists to find.)
  interp::Interpreter emu(aws_spec().clone());
  TraceGenerator gen(aws_spec());
  std::size_t checked = 0;
  for (const auto& m : aws_spec().machines) {
    // Keep the sweep bounded: core machines only.
    if (m.name != "Vpc" && m.name != "Subnet" && m.name != "Instance" &&
        m.name != "ElasticIp" && m.name != "NetworkInterface" && m.name != "Table") {
      continue;
    }
    for (const auto& t : m.transitions) {
      for (const auto& g : gen.generate_for(m.name, t.name)) {
        if (g.cls.kind != ClassKind::kHappyPath) continue;
        auto resp = run_trace(emu, g.trace);
        EXPECT_TRUE(resp[g.probe_call].ok)
            << g.trace.label << ": " << resp[g.probe_call].to_text();
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(TraceGen, ViolationTracesFailWithExpectedCodeOnEmulator) {
  interp::Interpreter emu(aws_spec().clone());
  TraceGenerator gen(aws_spec());
  std::size_t checked = 0;
  for (const auto& g : gen.generate_for("Subnet", "CreateSubnet")) {
    if (g.cls.kind != ClassKind::kAssertViolation) continue;
    auto resp = run_trace(emu, g.trace);
    ASSERT_FALSE(resp[g.probe_call].ok) << g.trace.label;
    EXPECT_EQ(resp[g.probe_call].code, g.cls.expected_code) << g.trace.label;
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

TEST(TraceGen, StateSweepCoversInstanceStates) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("Instance", "StartInstance");
  bool from_stopped = false;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kStateSweep && g.cls.sweep_attr == "state" &&
        g.cls.sweep_value == "stopped") {
      from_stopped = true;
    }
  }
  EXPECT_TRUE(from_stopped);
}

TEST(TraceGen, RefAttrSweepForReleaseAddress) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("ElasticIp", "ReleaseAddress");
  bool nic_attached = false;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kRefAttrSweep && g.cls.sweep_attr == "nic") {
      nic_attached = true;
      // The driver must be a real public API (AssociateAddress), not an
      // internal BackRef transition.
      for (const auto& c : g.trace.calls) {
        EXPECT_EQ(c.api.find("BackRef"), std::string::npos) << c.api;
      }
    }
  }
  EXPECT_TRUE(nic_attached);
}

TEST(TraceGen, BoolCouplingForDnsHostnames) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("Vpc", "ModifyVpcDnsHostnames");
  bool coupling = false;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kBoolCoupling && g.cls.sweep_attr == "dns_support") {
      coupling = true;
    }
  }
  EXPECT_TRUE(coupling);
}

TEST(TraceGen, BoundaryProbeAtDocumentedPrefixBound) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("Subnet", "CreateSubnet");
  bool boundary = false;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kBoundaryProbe && g.cls.bound_param == "cidr_block") {
      EXPECT_EQ(g.cls.bound_value, 28);
      boundary = true;
    }
  }
  EXPECT_TRUE(boundary);
}

TEST(TraceGen, MemberProbesCoverEnumDomains) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_for("Instance", "ModifyInstanceTenancy");
  std::set<std::string> probed;
  for (const auto& g : traces) {
    if (g.cls.kind == ClassKind::kMemberProbe) probed.insert(g.cls.member_value);
  }
  // Domain {default, dedicated, host}: the happy path covers the first
  // member, probes cover the rest.
  EXPECT_EQ(probed, (std::set<std::string>{"dedicated", "host"}));
}

TEST(TraceGen, InternalBackRefTransitionsSkipped) {
  TraceGenerator gen(aws_spec());
  EXPECT_TRUE(gen.generate_for("NetworkInterface", "AssociateAddressBackRef").empty());
}

TEST(TraceGen, GenerateAllCoversTheSpec) {
  TraceGenerator gen(aws_spec());
  auto traces = gen.generate_all();
  EXPECT_GT(traces.size(), 1000u);
  const auto& stats = gen.stats();
  // Unreachable enum members (pending/CREATING/...) are honestly skipped
  // sweeps; everything else must concretize.
  EXPECT_GT(stats.classes_concretized, 1000u);
  std::size_t non_sweep_skips = 0;
  for (const auto& reason : stats.skipped) {
    if (reason.find("unreachable") == std::string::npos) ++non_sweep_skips;
  }
  EXPECT_LT(non_sweep_skips, 60u) << stats.skipped.front();
}

// Two machines can drive Nic.public_ip through the internal back-reference
// transition (PublicIp's call sits inside an if, as in the AWS spec). The
// generator must pick the first caller in spec order, which is neither
// the alphabetical first nor the last declared.
constexpr const char* kTwoBackrefCallers = R"SPEC(
sm Nic {
  service "ec2";
  id_prefix "eni";
  states {
    public_ip: ref PublicIp;
  }
  transitions {
    create CreateNic() {
    }
    destroy DeleteNic() {
      assert(is_null(self.public_ip)) else DependencyViolation;
    }
    modify AttachAddressBackRef(peer: ref PublicIp) {
      write(public_ip, peer);
    }
  }
}
sm PublicIp {
  service "ec2";
  id_prefix "eip";
  states {
    nic: ref Nic;
  }
  transitions {
    create AllocatePublicIp() {
    }
    modify AssociatePublicIp(nic: ref Nic) {
      write(nic, nic);
      if (!is_null(nic)) {
        call(nic, AttachAddressBackRef, self);
      }
    }
  }
}
sm Ipv6Prefix {
  service "ec2";
  id_prefix "ipv6";
  states {
    nic: ref Nic;
  }
  transitions {
    create AllocateIpv6Prefix() {
    }
    modify AssignIpv6Prefix(nic: ref Nic) {
      call(nic, AttachAddressBackRef, self);
    }
  }
}
)SPEC";

TEST(TraceGen, BackrefDriverIsFirstCallerInSpecOrder) {
  spec::ParseError err;
  auto spec = spec::parse_spec(kTwoBackrefCallers, &err);
  ASSERT_TRUE(spec.has_value()) << err.to_text();
  TraceGenerator gen(*spec);
  std::size_t checked = 0;
  for (const auto& g : gen.generate_for("Nic", "DeleteNic")) {
    if (g.cls.kind != ClassKind::kAssertViolation &&
        g.cls.kind != ClassKind::kRefAttrSweep) {
      continue;
    }
    std::vector<std::string> apis;
    for (const auto& c : g.trace.calls) apis.push_back(c.api);
    EXPECT_EQ(apis, (std::vector<std::string>{"CreateNic", "AllocatePublicIp",
                                              "AssociatePublicIp", "DeleteNic"}))
        << g.trace.label;
    ++checked;
  }
  EXPECT_EQ(checked, 2u);
}

// --- parallel generation ----------------------------------------------------
// generate_all(w) builds each transition's traces on whichever worker
// claims it and joins them in spec order: the corpus and the merged stats
// must not depend on w.

/// Everything a generated corpus carries, in order, plus the stats.
std::string corpus_text(const std::vector<GenTrace>& traces, const GenStats& stats) {
  std::string out;
  for (const auto& g : traces) {
    out += strf(g.trace.label, " ", to_string(g.cls.kind), " ", g.cls.machine, "::",
                g.cls.transition, " assert=", g.cls.assert_index,
                " expect=", g.cls.expected_code, " [", g.cls.description, "]",
                " sweep=", g.cls.sweep_attr, "=", g.cls.sweep_value, "/",
                g.cls.sweep_param, " bound=", g.cls.bound_param, "@", g.cls.bound_value,
                " member=", g.cls.member_param, "=", g.cls.member_value,
                " probe=", g.probe_call, "\n");
    for (const auto& c : g.trace.calls) out += "  " + c.to_text() + "\n";
  }
  out += strf("classes ", stats.classes_total, " concretized ",
              stats.classes_concretized, "\n");
  for (const auto& why : stats.skipped) out += "skipped " + why + "\n";
  return out;
}

void expect_identical_at_every_worker_count(const spec::SpecSet& spec) {
  TraceGenerator serial(spec);
  std::string want = corpus_text(serial.generate_all(1), serial.stats());
  ASSERT_GT(serial.stats().classes_concretized, 100u);
  // Each class is counted once: it is either concretized or skipped.
  EXPECT_EQ(serial.stats().classes_total,
            serial.stats().classes_concretized + serial.stats().skipped.size());
  for (int workers : {2, 4, 0}) {
    SCOPED_TRACE(workers);
    TraceGenerator gen(spec);
    EXPECT_EQ(corpus_text(gen.generate_all(workers), gen.stats()), want);
  }
}

TEST(ParallelTraceGen, CorpusAndStatsIdenticalOnAwsSpec) {
  expect_identical_at_every_worker_count(aws_spec());
}

TEST(ParallelTraceGen, CorpusAndStatsIdenticalOnNoisySpecs) {
  // LLM-style noise drops, renames and corrupts spec elements, which
  // changes what the builders can solve and which classes get skipped.
  auto corpus = docs::render_corpus(docs::build_aws_catalog());
  for (std::uint64_t seed : {3u, 11u, 77u}) {
    SCOPED_TRACE(seed);
    synth::SynthesisOptions opts;
    opts.noise_rate = 0.25;
    opts.seed = seed;
    auto result = synth::synthesize(corpus, opts);
    ASSERT_FALSE(result.noise.empty());
    expect_identical_at_every_worker_count(result.spec);
  }
}

TEST(ParallelTraceGen, StatsAccumulateAcrossCallsAsSerially) {
  // stats() sums every generate_for/generate_all call on one generator.
  TraceGenerator serial(aws_spec());
  serial.generate_for("Instance", "StartInstance");
  serial.generate_all(1);
  TraceGenerator parallel(aws_spec());
  parallel.generate_for("Instance", "StartInstance");
  parallel.generate_all(4);
  EXPECT_EQ(corpus_text({}, parallel.stats()), corpus_text({}, serial.stats()));
}

}  // namespace
}  // namespace lce::align
