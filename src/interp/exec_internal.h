// Internals shared by the two execution paths — the tree-walking
// reference interpreter (interpreter.cpp) and the compiled-plan executor
// (plan/exec.cpp). Not installed; include only from src/interp.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/api.h"
#include "interp/interpreter.h"
#include "interp/store.h"

namespace lce::interp::internal {

/// Maximum call() nesting before a transition aborts with InternalError.
inline constexpr int kMaxCallDepth = 16;

/// Thrown (as a value) to abort a transition; carries the response. The
/// executor writes the failure site straight to the caller's FailureSite,
/// when one was asked for, before throwing.
struct Abort {
  ApiResponse response;
};

/// Shards of every ref nested anywhere in an argument value.
inline void collect_ref_shards(const Value& v, const ResourceStore& store,
                               std::vector<std::size_t>& out) {
  if (v.is_ref()) {
    out.push_back(store.shard_of(v.as_str()));
  } else if (v.is_list()) {
    for (const auto& item : v.as_list()) collect_ref_shards(item, store, out);
  } else if (v.is_map()) {
    for (const auto& [_, item] : v.as_map()) collect_ref_shards(item, store, out);
  }
}

/// The trailing counter of a minted id ("vpc-00000007" -> 7); 0 when the
/// id has no numeric suffix.
inline std::uint64_t id_suffix_counter(std::string_view id) {
  std::size_t dash = id.rfind('-');
  if (dash == std::string_view::npos) return 0;
  std::uint64_t n = 0;
  for (std::size_t i = dash + 1; i < id.size(); ++i) {
    char c = id[i];
    if (c < '0' || c > '9') return 0;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

/// Transactional rollback under held shard locks: instead of copying the
/// whole store per invoke (the pre-sharded design — O(store) per call and
/// impossible once two transitions run at once), record the first-touch
/// before-image of every mutated resource and undo in reverse on abort.
class UndoJournal {
 public:
  void note_minted(std::string prefix, std::uint64_t minted_counter) {
    Entry e;
    e.kind = Entry::kMinted;
    e.id = std::move(prefix);  // reuse the id slot for the prefix
    e.counter = minted_counter;
    entries_.push_back(std::move(e));
  }

  void note_created(const std::string& id) {
    touched_.insert(id);
    Entry e;
    e.kind = Entry::kCreated;
    e.id = id;
    entries_.push_back(std::move(e));
  }

  /// Record `r`'s before-image unless this transaction already owns it
  /// (created it or captured it earlier).
  void note_modified(const Resource& r) {
    if (!touched_.insert(r.id).second) return;
    Entry e;
    e.kind = Entry::kModified;
    e.id = r.id;
    e.before = r;
    entries_.push_back(std::move(e));
  }

  void note_destroyed(const Resource& r) {
    // A destroy always rolls back to the full before-image, even when
    // earlier statements of the same transaction modified it: the
    // earlier kModified entry (replayed later in the reverse pass)
    // restores the true pre-transaction state.
    Entry e;
    e.kind = Entry::kDestroyed;
    e.id = r.id;
    e.before = r;
    entries_.push_back(std::move(e));
  }

  void rollback(ResourceStore& store) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      switch (it->kind) {
        case Entry::kCreated:
          store.erase_raw(it->id);
          break;
        case Entry::kModified:
        case Entry::kDestroyed:
          store.restore(std::move(it->before));
          break;
        case Entry::kMinted:
          if (it->counter > 0) store.rewind_id(it->id, it->counter - 1);
          break;
      }
    }
    entries_.clear();
    touched_.clear();
  }

 private:
  struct Entry {
    enum Kind { kCreated, kModified, kDestroyed, kMinted } kind = kModified;
    std::string id;          // resource id; mint prefix for kMinted
    Resource before;         // kModified / kDestroyed
    std::uint64_t counter = 0;  // kMinted: the counter the mint produced
  };

  std::vector<Entry> entries_;
  std::set<std::string> touched_;
};

}  // namespace lce::interp::internal
