// A replicated key-value store — a second, realistic application on top of
// the replication API (the micro-benchmark TestServant is deliberately
// synthetic). Demonstrates that Checkpointable is application-agnostic:
// deterministic CDR-typed operations, full-state snapshots, and a digest for
// consistency checking.
//
// Operations (CDR arguments KvArgs, results as listed):
//   "put"    in: string key, string value      out: boolean existed
//   "get"    in: string key                    out: KvGot {found, value}
//   "erase"  in: string key                    out: boolean existed
//   "size"   in: -                             out: ulong entries
//   "append" in: string key, string value      out: ulong new length
//
// "append" exists for the chaos engine's exactly-once oracle: appending a
// unique token makes a duplicated execution visible in the final state,
// where an idempotent "put" would hide it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "replication/app_state.hpp"
#include "util/calibration.hpp"

namespace vdep::app {

// The KV item list, `u32 n; (str key, str value)*` in key order: a store's
// snapshot, the upserts of its delta and the range a shard donates. `Items`
// is a map or a vector of pairs to decode into; a const map reference or
// pairs of std::string_view encode without copying the store.
template <typename Items>
struct KvItems {
  Items items;

  template <typename IO>
  friend void wire_fields(IO& io, KvItems& m) {
    io.seq(m.items, 8);  // two empty strings
  }
};
using KvPairs = KvItems<std::vector<std::pair<std::string, std::string>>>;
using KvPairViews = KvItems<std::vector<std::pair<std::string_view, std::string_view>>>;

enum class KvOp { kPut, kGet, kErase, kAppend, kSize };

// The operation named `name`; nullopt for an unknown one.
[[nodiscard]] std::optional<KvOp> kv_op(std::string_view name);

// An operation's arguments. `op` is not on the wire: the caller knows it
// from the operation name, and it picks the fields that follow.
struct KvArgs {
  KvOp op = KvOp::kGet;
  std::string key;    // all but size
  std::string value;  // put and append

  template <typename IO>
  friend void wire_fields(IO& io, KvArgs& m) {
    if (m.op != KvOp::kSize) io(m.key);
    if (m.op == KvOp::kPut || m.op == KvOp::kAppend) io(m.value);
  }
};

// The get result. `Str` is std::string to decode and std::string_view to
// encode.
template <typename Str>
struct KvGot {
  bool found = false;
  Str value;

  template <typename IO>
  friend void wire_fields(IO& io, KvGot& m) {
    io(m.found, m.value);
  }
};

// A delta: the keys written since the base cut with their values, then the
// keys erased, each list in key order. `Str` is std::string to decode and
// std::string_view to encode.
template <typename Str>
struct KvDelta {
  KvItems<std::vector<std::pair<Str, Str>>> upserts;
  std::vector<Str> erased;

  template <typename IO>
  friend void wire_fields(IO& io, KvDelta& m) {
    io(m.upserts);
    io.seq(m.erased, 4);
  }
};

class KvStoreServant final : public replication::Checkpointable {
 public:
  KvStoreServant() = default;
  // The stamp list links nodes of this object's own map.
  KvStoreServant(const KvStoreServant&) = delete;
  KvStoreServant& operator=(const KvStoreServant&) = delete;

  Result invoke(const std::string& operation, const Bytes& args) override;
  // Runs an operation on decoded arguments: what invoke() does once it has
  // decoded them, at the same simulated CPU time.
  Result apply(KvArgs args);

  [[nodiscard]] Bytes snapshot() const override;
  void restore(std::span<const std::uint8_t> snapshot) override;
  [[nodiscard]] std::size_t state_size() const override;
  [[nodiscard]] std::uint64_t state_digest() const override;

  // Incremental checkpointing: every mutation stamps its key with the open
  // epoch; erasures leave tombstones. The stamps are also linked in stamp
  // order, so a delta since epoch `e` walks back from the newest stamp over
  // only the keys written or erased after the cut labelled `e` — its wall
  // cost follows the dirty set, not the store. restore() resets the
  // tracking, after which only cuts taken from the restored state are
  // answerable. restore() and apply_delta() decode their input whole before
  // they apply it: a malformed one throws DecodeError and changes nothing.
  [[nodiscard]] bool supports_delta() const override { return true; }
  std::uint64_t cut_epoch() override;
  [[nodiscard]] std::optional<Bytes> snapshot_delta(
      std::uint64_t since_epoch) const override;
  void apply_delta(std::span<const std::uint8_t> delta) override;

  [[nodiscard]] std::size_t entries() const { return data_.size(); }
  // Direct read of the stored value (oracles inspect replica state without
  // going through the request path).
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;
  // Whole-store view, for range extraction (shard donation) and audits.
  [[nodiscard]] const std::map<std::string, std::string>& items() const {
    return data_;
  }

  // --- typed client-side helpers (encode args / decode results) -------------
  static Bytes encode_put(const std::string& key, const std::string& value);
  static Bytes encode_key(const std::string& key);  // for get/erase
  static Bytes encode_append(const std::string& key, const std::string& value);
  using GetResult = KvGot<std::string>;
  static GetResult decode_get(const Bytes& body);
  static bool decode_flag(const Bytes& body);  // put/erase result

 private:
  // Key -> the epoch of its last mutation and the value it left: the key's
  // cell in `data_`, or null when the mutation erased it. Holds every key
  // written or erased since the last restore. Each stamp is also a node of
  // an intrusive list in stamp order: epochs only grow, and a re-stamped key
  // moves to the newest end, so the list is sorted by epoch. Map nodes never
  // move, so the links and cells stay valid until restore() clears both
  // maps (an erase nulls the cell first).
  struct Stamp;
  using StampNode = std::pair<const std::string, Stamp>;
  struct Stamp {
    std::uint64_t epoch = 0;
    const std::string* value = nullptr;
    StampNode* older = nullptr;
    StampNode* newer = nullptr;
  };

  // Sets `key` to `value` / drops `key`, keeping `bytes_` and the stamps in
  // step. Both return whether the key existed.
  bool assign(const std::string& key, std::string value);
  bool erase(const std::string& key);
  void stamp(const std::string& key, const std::string* value);

  std::map<std::string, std::string> data_;
  // state_size(): 4 + the sum over entries of key + value + 8, kept current
  // by every mutation.
  std::size_t bytes_ = 4;

  // Dirty-key tracking. `epoch_` is the open (still-mutating) epoch;
  // cut_epoch() closes it. `delta_floor_` is the oldest cut a delta can
  // still be computed against (bumped to the open epoch on restore, which
  // discards the stamps).
  std::uint64_t epoch_ = 1;
  std::uint64_t delta_floor_ = 0;
  std::map<std::string, Stamp> stamps_;
  StampNode* newest_ = nullptr;
};

}  // namespace vdep::app
