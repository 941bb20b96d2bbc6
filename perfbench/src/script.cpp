#include "script.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "common/strings.h"
#include "server/json.h"

namespace perfbench {

using lce::ApiRequest;
using lce::ApiResponse;
using lce::Rng;
using lce::Value;

const char* class_name(OpClass c) {
  switch (c) {
    case OpClass::kRead: return "read";
    case OpClass::kWrite: return "write";
    case OpClass::kCreate: return "create";
    case OpClass::kDelete: return "delete";
    case OpClass::kError: return "error";
  }
  return "?";
}

namespace {

constexpr std::size_t kIdDigits = 8;

/// Stores `id` as op `index`'s minted id when it has the op's prefix and
/// exactly 8 digits.
bool remember(Segment& seg, std::size_t index, std::string_view id) {
  const std::string& prefix = seg.ops[index].mint_prefix;
  if (id.size() != prefix.size() + 1 + kIdDigits || id.substr(0, prefix.size()) != prefix ||
      id[prefix.size()] != '-') {
    return false;
  }
  for (char c : id.substr(prefix.size() + 1)) {
    if (c < '0' || c > '9') return false;
  }
  seg.slots[index].assign(id);
  return true;
}

struct Arg {
  std::string key;
  std::string json;      // rendered value when slot < 0
  std::int32_t slot = -1;
};

Arg text(std::string key, const std::string& v) { return {std::move(key), "\"" + v + "\"", -1}; }
Arg num(std::string key, std::int64_t v) { return {std::move(key), std::to_string(v), -1}; }
Arg flag(std::string key, bool v) { return {std::move(key), v ? "true" : "false", -1}; }
Arg ref(std::string key, std::int32_t slot) { return {std::move(key), "", slot}; }

class OpWriter {
 public:
  explicit OpWriter(Segment& seg) : seg_(seg) {}

  /// Appends an op and returns its index (its slot, when it creates).
  std::int32_t add(const std::string& api, OpClass cls, std::vector<Arg> args,
                   std::int32_t target = -1, std::string mint_prefix = "",
                   std::string intended_code = "") {
    if (target >= 0) args.insert(args.begin(), ref("id", target));
    ScriptOp op;
    op.api = api;
    op.cls = cls;
    op.target = target;
    op.mint_prefix = std::move(mint_prefix);
    op.intended_code = std::move(intended_code);
    std::string body = "{\"Action\":\"" + api + "\",\"Params\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Arg& a = args[i];
      if (i) body += ',';
      body += "\"" + a.key + "\":";
      if (a.slot < 0) {
        body += a.json;
        continue;
      }
      const std::string& prefix = seg_.ops[static_cast<std::size_t>(a.slot)].mint_prefix;
      body += "\"" + prefix + "-";
      op.patches.push_back(Patch{static_cast<std::uint32_t>(body.size()),
                                 static_cast<std::uint32_t>(a.slot)});
      body += std::string(kIdDigits, '0') + "\"";
    }
    body += "}}";
    std::string head = lce::strf("POST /invoke HTTP/1.1\r\nhost: 127.0.0.1\r\n"
                                 "content-type: application/json\r\ncontent-length: ",
                                 body.size(), "\r\n\r\n");
    for (Patch& p : op.patches) p.offset += static_cast<std::uint32_t>(head.size());
    op.body_offset = static_cast<std::uint32_t>(head.size());
    op.wire = head + body;
    seg_.ops.push_back(std::move(op));
    seg_.slots.emplace_back();
    return static_cast<std::int32_t>(seg_.ops.size() - 1);
  }

 private:
  Segment& seg_;
};

struct Resource {
  std::int32_t slot;
  std::string type;  // spec machine name: Vpc, Subnet, ...
};

const std::vector<std::string> kInstanceTypes = {"t3.micro", "t3.small", "m5.large",
                                                 "c5.xlarge"};
const std::vector<std::string> kZones = {"us-east", "us-west", "eu-central"};

std::string note(Rng& rng) { return lce::strf("agent note ", rng.range(0, 999999)); }

/// A modify-class op on `r` that always succeeds on this spec.
void add_modify(OpWriter& b, Rng& rng, const Resource& r) {
  int pick = static_cast<int>(rng.uniform(2));
  if (r.type == "Vpc") {
    b.add("ModifyVpcDescription", OpClass::kWrite, {text("value", note(rng))}, r.slot);
  } else if (r.type == "Subnet") {
    if (pick == 0) {
      b.add("ModifySubnetDescription", OpClass::kWrite, {text("value", note(rng))}, r.slot);
    } else {
      b.add("ModifySubnetAttribute", OpClass::kWrite,
            {flag("map_public_ip_on_launch", rng.chance(0.5))}, r.slot);
    }
  } else if (r.type == "InternetGateway") {
    b.add("ModifyInternetGatewayDescription", OpClass::kWrite, {text("value", note(rng))},
          r.slot);
  } else if (r.type == "SecurityGroup") {
    if (pick == 0) {
      b.add("ModifySecurityGroupDescription", OpClass::kWrite, {text("value", note(rng))},
            r.slot);
    } else {
      b.add("AuthorizeSecurityGroupIngress", OpClass::kWrite,
            {num("port", rng.range(1, 65535))}, r.slot);
    }
  } else {
    if (pick == 0) {
      b.add("ModifyInstanceSourceDestCheck", OpClass::kWrite,
            {flag("value", rng.chance(0.5))}, r.slot);
    } else {
      b.add("ModifyInstanceCreditSpecification", OpClass::kWrite,
            {text("value", rng.chance(0.5) ? "standard" : "unlimited")}, r.slot);
    }
  }
}

/// Agents inspecting cloud state: 3 VPCs, each with 2 subnets, an internet
/// gateway, a security group and 2 instances, then a 1000-op cycle of 80%
/// describes, 15% modifies and 5% create/delete of a temporary security
/// group (each create is deleted later, so the store stays bounded).
Segment agent_segment(Rng& rng, int conn) {
  Segment seg;
  OpWriter b(seg);
  std::vector<Resource> res;
  std::vector<std::int32_t> vpcs;
  for (int v = 0; v < 3; ++v) {
    std::int64_t oct = rng.range(0, 255);
    std::int32_t vpc = b.add("CreateVpc", OpClass::kCreate,
                             {text("cidr_block", lce::strf("10.", oct, ".0.0/16"))}, -1,
                             "vpc");
    vpcs.push_back(vpc);
    res.push_back({vpc, "Vpc"});
    for (int s = 0; s < 2; ++s) {
      std::int32_t subnet =
          b.add("CreateSubnet", OpClass::kCreate,
                {ref("vpc", vpc), text("cidr_block", lce::strf("10.", oct, ".", s + 1, ".0/24")),
                 text("zone", rng.pick(kZones))},
                -1, "subnet");
      res.push_back({subnet, "Subnet"});
      res.push_back({b.add("RunInstance", OpClass::kCreate,
                           {ref("subnet", subnet), text("instance_type", rng.pick(kInstanceTypes))},
                           -1, "i"),
                     "Instance"});
    }
    res.push_back({b.add("CreateInternetGateway", OpClass::kCreate, {ref("vpc", vpc)}, -1, "igw"),
                   "InternetGateway"});
    res.push_back({b.add("CreateSecurityGroup", OpClass::kCreate,
                         {ref("vpc", vpc),
                          text("group_name", lce::strf("agents ", conn, " group ", v))},
                         -1, "sg"),
                   "SecurityGroup"});
  }
  seg.prologue = seg.ops.size();
  std::int32_t temp_sg = -1;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t r = rng.uniform(100);
    if (r < 80) {
      const Resource& target = rng.pick(res);
      b.add("Describe" + target.type, OpClass::kRead, {}, target.slot);
    } else if (r < 95) {
      add_modify(b, rng, rng.pick(res));
    } else if (temp_sg < 0) {
      temp_sg = b.add("CreateSecurityGroup", OpClass::kCreate,
                      {ref("vpc", rng.pick(vpcs)), text("group_name", note(rng))}, -1, "sg");
    } else {
      b.add("DeleteSecurityGroup", OpClass::kDelete, {}, temp_sg);
      temp_sg = -1;
    }
  }
  if (temp_sg >= 0) b.add("DeleteSecurityGroup", OpClass::kDelete, {}, temp_sg);
  return seg;
}

/// Terraform-like apply/destroy: 16 rounds per cycle, each creating a VPC,
/// 2 subnets, an internet gateway, a security group and 2 instances,
/// polling them, applying a few modifies, trying one early DeleteVpc
/// (DependencyViolation) and tearing everything down in dependency order.
Segment iac_segment(Rng& rng) {
  Segment seg;
  OpWriter b(seg);
  for (int round = 0; round < 16; ++round) {
    std::int64_t oct = rng.range(0, 255);
    std::int64_t third = rng.range(0, 126) * 2;
    std::int32_t vpc = b.add("CreateVpc", OpClass::kCreate,
                             {text("cidr_block", lce::strf("10.", oct, ".0.0/16"))}, -1,
                             "vpc");
    std::int32_t s1 = b.add(
        "CreateSubnet", OpClass::kCreate,
        {ref("vpc", vpc), text("cidr_block", lce::strf("10.", oct, ".", third, ".0/24")),
         text("zone", rng.pick(kZones))},
        -1, "subnet");
    std::int32_t s2 = b.add(
        "CreateSubnet", OpClass::kCreate,
        {ref("vpc", vpc), text("cidr_block", lce::strf("10.", oct, ".", third + 1, ".0/24")),
         text("zone", rng.pick(kZones))},
        -1, "subnet");
    std::int32_t igw =
        b.add("CreateInternetGateway", OpClass::kCreate, {ref("vpc", vpc)}, -1, "igw");
    std::int32_t sg = b.add("CreateSecurityGroup", OpClass::kCreate,
                            {ref("vpc", vpc), text("group_name", lce::strf("web round ", round))},
                            -1, "sg");
    std::int32_t i1 = b.add("RunInstance", OpClass::kCreate,
                            {ref("subnet", s1), text("instance_type", rng.pick(kInstanceTypes))},
                            -1, "i");
    std::int32_t i2 = b.add("RunInstance", OpClass::kCreate,
                            {ref("subnet", s2), text("instance_type", rng.pick(kInstanceTypes))},
                            -1, "i");
    std::vector<Resource> made = {{vpc, "Vpc"},           {s1, "Subnet"},
                                  {s2, "Subnet"},         {igw, "InternetGateway"},
                                  {sg, "SecurityGroup"},  {i1, "Instance"},
                                  {i2, "Instance"}};
    std::vector<std::size_t> order = {0, 1, 2, 3, 4, 5, 6};
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
    std::int64_t polls = rng.range(4, 7);
    for (std::int64_t p = 0; p < polls; ++p) {
      const Resource& r = made[order[static_cast<std::size_t>(p)]];
      b.add("Describe" + r.type, OpClass::kRead, {}, r.slot);
    }
    std::int64_t modifies = rng.range(2, 4);
    for (std::int64_t m = 0; m < modifies; ++m) add_modify(b, rng, rng.pick(made));
    b.add("DeleteVpc", OpClass::kError, {}, vpc, "", "DependencyViolation");
    b.add("TerminateInstance", OpClass::kDelete, {}, i1);
    b.add("TerminateInstance", OpClass::kDelete, {}, i2);
    b.add("DeleteSecurityGroup", OpClass::kDelete, {}, sg);
    b.add("DeleteInternetGateway", OpClass::kDelete, {}, igw);
    b.add("DeleteSubnet", OpClass::kDelete, {}, s1);
    b.add("DeleteSubnet", OpClass::kDelete, {}, s2);
    b.add("DeleteVpc", OpClass::kDelete, {}, vpc);
  }
  return seg;
}

}  // namespace

void Segment::patch(ScriptOp& op) const {
  for (const Patch& p : op.patches) {
    const std::string& id = slots[p.slot];
    if (id.size() >= kIdDigits) {
      std::memcpy(op.wire.data() + p.offset, id.data() + id.size() - kIdDigits, kIdDigits);
    }
  }
}

bool Segment::capture(std::size_t index, std::string_view body) {
  return remember(*this, index, find_id(body));
}

std::vector<Segment> make_script(ScriptKind kind, std::uint64_t seed, int connections) {
  Rng root(seed);
  std::vector<Segment> segs;
  for (int c = 0; c < connections; ++c) {
    Rng rng = root.fork();
    segs.push_back(kind == ScriptKind::kAgentDescribe ? agent_segment(rng, c) : iac_segment(rng));
  }
  return segs;
}

std::string_view find_id(std::string_view body) {
  static constexpr std::string_view kKey = "\"id\":\"";
  std::size_t at = body.find(kKey);
  if (at == std::string_view::npos) return {};
  std::size_t start = at + kKey.size();
  std::size_t end = body.find('"', start);
  if (end == std::string_view::npos) return {};
  return body.substr(start, end - start);
}

bool check_response(Segment& seg, std::size_t index, int status, std::string_view body) {
  const ScriptOp& op = seg.ops[index];
  const Expect& e = op.expect;
  if (status != e.status) return false;
  if (!e.code.empty()) {
    std::size_t at = body.find("\"Code\":\"");
    if (at == std::string_view::npos) return false;
    std::string_view code = body.substr(at + 8);
    return code.size() > e.code.size() && code.substr(0, e.code.size()) == e.code &&
           code[e.code.size()] == '"';
  }
  switch (e.echo) {
    case Expect::Echo::kNone: return true;
    case Expect::Echo::kTarget:
      return op.target >= 0 && find_id(body) == seg.slots[static_cast<std::size_t>(op.target)];
    case Expect::Echo::kMinted: return seg.capture(index, body);
  }
  return false;
}

int status_for(const ApiResponse& resp) {
  if (resp.ok) return 200;
  if (resp.code == "RequestLimitExceeded") return 429;
  if (resp.code == "InternalError") return 500;
  return 400;
}

ApiRequest decode_request(std::string_view body) {
  ApiRequest req;
  auto doc = lce::server::parse_json(body);
  if (!doc || !doc->is_map()) return req;
  if (const Value* action = doc->get("Action")) req.api = std::string(action->as_str());
  if (const Value* params = doc->get("Params"); params != nullptr && params->is_map()) {
    req.args = params->as_map();
  }
  return req;
}

void replay(std::vector<Segment>& segments, int passes, const InvokeFn& call,
            const AfterFn& after) {
  for (Segment& seg : segments) {
    auto run = [&](std::size_t i) {
      ScriptOp& op = seg.ops[i];
      seg.patch(op);
      ApiRequest req = decode_request(seg.body(op));
      ApiResponse resp = call(op, op.wire, req);
      if (resp.ok && !op.mint_prefix.empty()) {
        if (const Value* id = resp.data.get("id")) remember(seg, i, id->as_str());
      }
      if (after) after(seg, i, resp);
    };
    for (std::size_t i = 0; i < seg.prologue; ++i) run(i);
    for (int p = 0; p < passes; ++p) {
      for (std::size_t i = seg.prologue; i < seg.ops.size(); ++i) run(i);
    }
  }
}

std::string derive_expectations(std::vector<Segment>& segments, lce::CloudBackend& backend) {
  clear_slots(segments);
  std::string problem;
  std::vector<std::vector<bool>> seen;
  for (const Segment& seg : segments) seen.emplace_back(seg.ops.size(), false);
  // Two passes over each cycle: the second must reproduce the first, which
  // is what lets the load loop repeat the cycle with the same expectations.
  replay(
      segments, 2,
      [&](const ScriptOp&, std::string_view, const ApiRequest& req) { return backend.invoke(req); },
      [&](Segment& seg, std::size_t i, const ApiResponse& resp) {
        std::size_t seg_index = static_cast<std::size_t>(&seg - segments.data());
        ScriptOp& op = seg.ops[i];
        Expect e;
        e.status = status_for(resp);
        if (!resp.ok) {
          e.code = resp.code;
        } else if (!op.mint_prefix.empty()) {
          e.echo = Expect::Echo::kMinted;
        } else if (op.target >= 0) {
          e.echo = Expect::Echo::kTarget;
          const Value* id = resp.data.get("id");
          if (id == nullptr || id->as_str() != seg.slots[static_cast<std::size_t>(op.target)]) {
            if (problem.empty()) problem = lce::strf(op.api, " did not echo its target id");
          }
        }
        std::string got = resp.ok ? "" : resp.code;
        if (got != op.intended_code && problem.empty()) {
          problem = lce::strf(op.api, " answered '", got.empty() ? "success" : got,
                              "' where the script intends '",
                              op.intended_code.empty() ? "success" : op.intended_code, "'");
        }
        if (!seen[seg_index][i]) {
          op.expect = e;
          seen[seg_index][i] = true;
          if (!resp.ok) op.cls = OpClass::kError;
        } else if (op.expect.status != e.status || op.expect.code != e.code ||
                   op.expect.echo != e.echo) {
          if (problem.empty()) problem = lce::strf(op.api, " changed outcome between cycles");
        }
      });
  clear_slots(segments);
  return problem;
}

void clear_slots(std::vector<Segment>& segments) {
  for (Segment& seg : segments) {
    for (std::string& s : seg.slots) s.clear();
  }
}

}  // namespace perfbench
