// Seeded op scripts for the HTTP workloads, pre-rendered to request bytes.
//
// A script is one Segment per client connection. A segment's prologue runs
// once; its cycle then repeats for as long as the load runs. Ops that name
// a resource created earlier in the segment carry an 8-digit placeholder in
// their bytes, patched in place with the id the server minted (ids are
// "<prefix>-" plus exactly 8 digits, so the request length never changes).
// Segments touch disjoint resources, so their outcomes do not depend on how
// connections interleave; only minted id values do, and those are captured
// from each response.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/api.h"

namespace perfbench {

enum class OpClass : std::uint8_t { kRead, kWrite, kCreate, kDelete, kError };
const char* class_name(OpClass c);

/// Where 8 id digits inside ScriptOp::wire come from: the id minted by the
/// op at index `slot` of the same segment.
struct Patch {
  std::uint32_t offset = 0;
  std::uint32_t slot = 0;
};

/// What a response must show to count as correct.
struct Expect {
  int status = 200;
  std::string code;  // error code; empty on success
  /// Success only: the echoed "id" is the op's target, or a fresh id with
  /// the op's prefix (which the segment then remembers).
  enum class Echo : std::uint8_t { kNone, kTarget, kMinted } echo = Expect::Echo::kNone;
};

struct ScriptOp {
  std::string api;
  std::string wire;  // full HTTP/1.1 request; placeholder digits are zeros
  std::uint32_t body_offset = 0;
  std::vector<Patch> patches;
  std::int32_t target = -1;  // slot named by Params.id, -1 when none
  std::string mint_prefix;   // creates: prefix of the id they mint
  OpClass cls = OpClass::kRead;
  /// The outcome the generator intends (error ops name their code).
  std::string intended_code;
  /// The outcome derived by the in-process replay at set-up.
  Expect expect;
};

struct Segment {
  std::vector<ScriptOp> ops;
  std::size_t prologue = 0;  // ops [0, prologue) run once
  /// Minted ids by op index ("" until the op ran); sized to ops.size().
  std::vector<std::string> slots;

  std::string_view body(const ScriptOp& op) const {
    return std::string_view(op.wire).substr(op.body_offset);
  }
  /// Writes the current slot ids into `op`'s placeholder digits.
  void patch(ScriptOp& op) const;
  /// Remembers the id a successful create minted (the 8 trailing digits of
  /// the "id" field of `body`). False when the body carries no such id.
  bool capture(std::size_t index, std::string_view body);
};

enum class ScriptKind { kAgentDescribe, kIacApplyDestroy };

/// Builds one segment per connection from `seed`. The same arguments give
/// the same bytes.
std::vector<Segment> make_script(ScriptKind kind, std::uint64_t seed, int connections);

/// Value of the top-level "id" string field in a JSON body, or empty.
std::string_view find_id(std::string_view body);

/// True when `status`/`body` match `op.expect` (and, for target echoes,
/// the segment's current slot). Minted ids are captured into `seg`.
bool check_response(Segment& seg, std::size_t index, int status, std::string_view body);

/// HTTP status the endpoint answers an ApiResponse with.
int status_for(const lce::ApiResponse& resp);

/// Decodes `body` the way the endpoint's /invoke route does (Action and
/// Params; ids stay plain strings for the validate layer to re-tag).
lce::ApiRequest decode_request(std::string_view body);

/// Serial replay of every segment against one backend: prologue once, then
/// the cycle `passes` times, patching each op from the slots this replay
/// minted. `call` performs the invoke and returns the response (the
/// request is already decoded, outside any timing `call` does). `after`,
/// when set, sees every op with its response.
using InvokeFn = std::function<lce::ApiResponse(const ScriptOp&, std::string_view wire,
                                                const lce::ApiRequest&)>;
using AfterFn = std::function<void(Segment&, std::size_t index, const lce::ApiResponse&)>;
void replay(std::vector<Segment>& segments, int passes, const InvokeFn& call,
            const AfterFn& after = {});

/// Sets every op's Expect from one replay against `backend` (a fresh
/// emulator behind the shipped stack) and checks the generator's intent.
/// Returns an empty string, or the first inconsistency found.
std::string derive_expectations(std::vector<Segment>& segments, lce::CloudBackend& backend);

/// Clears every segment's minted ids.
void clear_slots(std::vector<Segment>& segments);

}  // namespace perfbench
