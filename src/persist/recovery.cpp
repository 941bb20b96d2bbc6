#include "persist/recovery.h"

#include <map>
#include <utility>

#include "common/strings.h"
#include "interp/interpreter.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace lce::persist {

namespace {

/// Split a minted id "prefix-NNNNNNNN" into its counter components.
bool parse_minted_id(std::string_view id, std::string* prefix, std::uint64_t* n) {
  const std::size_t dash = id.rfind('-');
  if (dash == std::string_view::npos || dash == 0 || dash + 1 >= id.size()) {
    return false;
  }
  std::uint64_t v = 0;
  for (char c : id.substr(dash + 1)) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) return false;
  *prefix = std::string(id.substr(0, dash));
  *n = v;
  return true;
}

bool responses_match(const ApiResponse& got, const ApiResponse& want) {
  // Messages are out of scope by the same contract alignment uses.
  return got.ok == want.ok && got.code == want.code && got.data == want.data;
}

using MintedIds = std::map<std::string, std::size_t, std::less<>>;

/// Replace every string/ref naming an id in `minted` with its minter's
/// "$k.id" placeholder, recursively through lists and maps.
Value portabilize(const Value& v, const MintedIds& minted) {
  if (v.is_str() || v.is_ref()) {
    auto it = minted.find(v.as_str());
    if (it != minted.end()) return Value(strf("$", it->second, ".id"));
    return v;
  }
  if (v.is_list()) {
    Value::List out;
    for (const auto& e : v.as_list()) out.push_back(portabilize(e, minted));
    return Value(std::move(out));
  }
  if (v.is_map()) {
    Value::Map out;
    for (const auto& [k, e] : v.as_map()) out.emplace(k, portabilize(e, minted));
    return Value(std::move(out));
  }
  return v;
}

}  // namespace

ApplyResult apply_records(const std::vector<LogRecord>& records,
                          interp::Interpreter* interp) {
  ApplyResult out;
  std::vector<ApiResponse> prior;  // "$k.field" resolution for trace replays
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecord::Type::kReset) {
      interp->reset();
      prior.clear();
      ++out.applied;
      continue;
    }
    const ApiRequest req = resolve_placeholders(rec.request, prior);
    // Pin the id sequence to what the logged call minted. Set-back before
    // the invoke makes the mint reproduce the logged id; afterwards the
    // counter returns to the high-water mark (which may be ABOVE this
    // record's id: concurrent commits can land in the log out of mint
    // order), so later mints never collide with ids that already exist.
    struct Pin {
      std::string prefix;
      std::uint64_t n;
      std::uint64_t high;  // counter before the set-back
    };
    std::vector<Pin> pins;
    std::string prefix;
    std::uint64_t counter = 0;
    for (const std::string& id : rec.minted_ids) {
      if (parse_minted_id(id, &prefix, &counter)) {
        pins.push_back({prefix, counter, interp->store().id_counter(prefix)});
        interp->store().set_id_counter(prefix, counter - 1);
      }
    }
    const ApiResponse got = interp->invoke(req);
    for (const Pin& pin : pins) {
      const std::uint64_t target = pin.high > pin.n ? pin.high : pin.n;
      if (interp->store().id_counter(pin.prefix) < target) {
        interp->store().set_id_counter(pin.prefix, target);
      }
    }
    prior.push_back(got);
    ++out.applied;
    if (rec.has_response && !responses_match(got, rec.response)) {
      if (out.mismatches == 0) {
        out.first_mismatch =
            strf("call #", out.applied - 1, " ", req.api, ": logged ",
                 rec.response.to_text(), " replayed ", got.to_text());
      }
      ++out.mismatches;
    }
  }
  return out;
}

RecoveryResult recover_into(const std::string& dir, interp::Interpreter* interp) {
  RecoveryResult res;
  interp->reset();

  const DataDirState state = scan_data_dir(dir);
  std::uint64_t epoch = 0;
  // Highest snapshot that VALIDATES wins; a bit-rotted newest snapshot
  // degrades to the previous epoch instead of failing the boot.
  for (auto it = state.snapshot_epochs.rbegin();
       it != state.snapshot_epochs.rend(); ++it) {
    std::string bytes;
    if (read_snapshot_file(snapshot_path(dir, *it), &bytes) &&
        deserialize_store(bytes, &interp->store())) {
      epoch = *it;
      res.snapshot_loaded = true;
      break;
    }
  }
  if (!res.snapshot_loaded) {
    if (!state.snapshot_epochs.empty()) {
      // Every snapshot failed validation and stale-epoch cleanup has long
      // since removed the logs that began at the fresh state: surfacing
      // the corruption beats silently serving an empty account.
      res.error = strf("no snapshot in ", dir,
                       " validates; cannot reconstruct state");
      return res;
    }
    epoch = 1;  // fresh dir: epoch 1 is the only epoch that starts empty
  }
  res.epoch = epoch;

  const WalScan scan = read_wal(wal_path(dir, epoch));
  if (scan.version_mismatch) {
    // A log a newer binary may own: treating it as empty would silently
    // drop its records (and appending to the file later would corrupt
    // it), so refuse the boot instead.
    res.error = strf(wal_path(dir, epoch),
                     " has an unsupported format version; refusing to recover");
    return res;
  }
  res.torn_tail = scan.torn_tail;
  const ApplyResult applied = apply_records(scan.records, interp);
  res.wal_records = applied.applied;
  res.mismatches = applied.mismatches;
  res.first_mismatch = applied.first_mismatch;
  res.ok = true;
  return res;
}

ReplayReport replay_dir(const std::string& dir, interp::Interpreter* a,
                        interp::Interpreter* b) {
  ReplayReport rep;
  RecoveryResult ra = recover_into(dir, a);
  if (!ra.ok) {
    rep.error = ra.error;
    return rep;
  }
  RecoveryResult rb = recover_into(dir, b);
  if (!rb.ok) {
    rep.error = rb.error;
    return rep;
  }
  rep.recovery = ra;
  rep.mismatches = ra.mismatches + rb.mismatches;
  rep.first_mismatch =
      ra.mismatches != 0 ? ra.first_mismatch : rb.first_mismatch;
  const std::string dump_a = serialize_store(a->store());
  const std::string dump_b = serialize_store(b->store());
  rep.dumps_identical = dump_a == dump_b;
  rep.canonical_dump = dump_a;
  rep.ok = rep.dumps_identical && rep.mismatches == 0;
  if (!rep.dumps_identical) {
    rep.error = "canonical dumps differ between independent recoveries";
  } else if (rep.mismatches != 0) {
    rep.error = strf(rep.mismatches, " replayed call(s) diverged from the log: ",
                     rep.first_mismatch);
  }
  return rep;
}

ReplayReport replay_file(const std::string& path, interp::Interpreter* interp) {
  ReplayReport rep;
  const WalScan scan = read_wal(path);
  if (scan.version_mismatch) {
    rep.error = strf(path, " has an unsupported format version");
    return rep;
  }
  if (!scan.header_ok) {
    rep.error = strf(path, " is not a record file (bad or missing header)");
    return rep;
  }
  interp->reset();
  const ApplyResult applied = apply_records(scan.records, interp);
  rep.recovery.ok = true;
  rep.recovery.wal_records = applied.applied;
  rep.recovery.torn_tail = scan.torn_tail;
  rep.mismatches = applied.mismatches;
  rep.first_mismatch = applied.first_mismatch;
  rep.canonical_dump = serialize_store(interp->store());
  rep.dumps_identical = true;  // single run; nothing to cross-check
  rep.ok = rep.mismatches == 0;
  if (!rep.ok) {
    rep.error = strf(rep.mismatches, " replayed call(s) diverged from the log: ",
                     rep.first_mismatch);
  }
  return rep;
}

std::vector<LogRecord> records_from_trace(const Trace& trace) {
  std::vector<LogRecord> out;
  out.reserve(trace.calls.size());
  for (const ApiRequest& call : trace.calls) {
    LogRecord rec;
    rec.type = LogRecord::Type::kCall;
    rec.request = call;
    out.push_back(std::move(rec));
  }
  return out;
}

Trace trace_from_records(const std::vector<LogRecord>& records,
                         std::string label) {
  Trace trace;
  trace.label = std::move(label);
  MintedIds minted;
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecord::Type::kReset) {  // a reset clears the session
      trace.calls.clear();
      minted.clear();
      continue;
    }
    ApiRequest call = rec.request;
    for (auto& [k, v] : call.args) v = portabilize(v, minted);
    if (auto it = minted.find(call.target); it != minted.end()) {
      call.target = strf("$", it->second, ".id");
    }
    for (const std::string& id : rec.minted_ids) minted.emplace(id, trace.calls.size());
    trace.calls.push_back(std::move(call));
  }
  return trace;
}

}  // namespace lce::persist
