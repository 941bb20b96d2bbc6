// JSON codec for the wire format of the HTTP endpoint: parse JSON text
// into `Value` and serialize back. Resource references serialize as plain
// strings (the way real cloud APIs put ids on the wire); the service layer
// re-tags strings shaped like resource ids (see service.h).
//
// parse_json builds the tree directly via Value::set/append with
// KeyTable-interned object keys. While an ArenaScope is active every rep
// block comes from the request arena, so steady-state decode does zero
// heap allocations (DESIGN.md "Wire fast path"). Acceptance, error offsets
// and messages are pinned by the WireFastpathJson goldens.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/value.h"

namespace lce::server {

struct JsonError {
  std::size_t offset = 0;
  std::string message;

  std::string to_text() const;
};

/// Parse one JSON document (object/array/scalar). Supports the full JSON
/// grammar except non-integer numbers, which are rejected (the cloud API
/// surface is integer-only). Arena-aware: see the header comment.
std::optional<Value> parse_json(std::string_view text, JsonError* error = nullptr);

/// Serialize a Value as compact JSON. Refs become plain strings.
std::string to_json(const Value& v);

/// Same rendering appended to `out` — the single-buffer response path
/// threads one reusable buffer through head and body instead of a
/// temporary string per response.
void append_json(const Value& v, std::string& out);

}  // namespace lce::server
