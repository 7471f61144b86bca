// ShardServant — a KV store that owns a set of hash ranges and enforces
// shard fencing on every request.
//
// All shard reconfiguration travels *in the replicated request stream*:
// freeze/donate/install/release are ordinary operations, AGREED-ordered with
// the data traffic by the group-communication layer and executed by the same
// replicator machinery (log replay on failover, checkpointed control state,
// exactly-once dedup via the reply cache). That one decision makes migration
// crash-safe without a single new protocol message:
//
//  - a data request delivered before the freeze executes; one delivered
//    after it is rejected kFrozen — total order is the atomicity boundary;
//  - a frozen range cannot change, so the donate bundle (cut after the
//    freeze in stream order) is exact;
//  - a failover mid-migration replays freeze/donate/release from the log or
//    restores them from a checkpoint — the new primary continues the
//    migration instead of forgetting it.
//
// Data operations carry the client's cached map epoch and are answered with
// an app-level ShardStatus ahead of the inner KV result: kWrongShard /
// kFrozen replies are how stale routing is rejected (the GIOP status stays
// NO_EXCEPTION — fencing is application-visible, not a transport error).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "app/kv_store.hpp"
#include "shard/map.hpp"

namespace vdep::shard {

enum class ShardStatus : std::uint32_t {
  kOk = 0,
  kWrongShard = 1,  // hash not in any owned range — routing was stale
  kFrozen = 2,      // owned, but mid-donation: retry after the map epoch bumps
  kStaleEpoch = 3,  // directory: commit does not continue the current epoch
  kBadRequest = 4,  // malformed/mis-sequenced control operation
};

[[nodiscard]] std::string to_string(ShardStatus status);

class ShardServant final : public replication::Checkpointable {
 public:
  // A servant joining an existing group starts blank (no ranges); the state
  // transfer brings both the data and the control state.
  ShardServant() : ShardServant({}, 0) {}
  ShardServant(std::vector<KeyRange> owned, std::uint64_t fence_epoch);

  // Data: "put" | "get" | "erase" | "append", args = CDR {ulonglong
  // map_epoch; string key; [string value]}; output = CDR {ulong status;
  // octets inner_result}.
  //
  // Control (issued by the migration controller, idempotent per migration
  // id `m`):
  //   "shard.freeze"   {ulonglong m; ulong lo; ulong hi; ulonglong
  //                     post_epoch; ulonglong target_group}
  //   "shard.donate"   {ulonglong m} -> {ulong status; octets bundle}
  //   "shard.install"  {ulonglong m; ulong lo; ulong hi; ulonglong
  //                     post_epoch; octets bundle}
  //   "shard.release"  {ulonglong m}
  Result invoke(const std::string& operation, const Bytes& args) override;

  [[nodiscard]] Bytes snapshot() const override;
  void restore(std::span<const std::uint8_t> snapshot) override;
  [[nodiscard]] std::size_t state_size() const override;
  [[nodiscard]] std::uint64_t state_digest() const override;

  [[nodiscard]] bool supports_delta() const override { return true; }
  std::uint64_t cut_epoch() override;
  [[nodiscard]] std::optional<Bytes> snapshot_delta(
      std::uint64_t since_epoch) const override;
  void apply_delta(std::span<const std::uint8_t> delta) override;

  // --- introspection (oracles/tests read replica state directly) ------------
  [[nodiscard]] const app::KvStoreServant& store() const { return inner_; }
  [[nodiscard]] app::KvStoreServant& store() { return inner_; }
  [[nodiscard]] const std::vector<KeyRange>& owned_ranges() const { return owned_; }
  [[nodiscard]] bool owns(std::uint32_t hash) const;
  [[nodiscard]] bool frozen() const { return frozen_.has_value(); }
  [[nodiscard]] std::uint64_t fence_epoch() const { return fence_epoch_; }
  // Keys currently stored whose hash falls outside every owned range
  // (serving them would violate ownership; should be empty after release).
  [[nodiscard]] std::size_t stray_keys() const;

  // --- client-side arg/result helpers ---------------------------------------
  static Bytes encode_data_args(std::uint64_t map_epoch, const std::string& key,
                                const std::string* value);
  struct DataReply {
    ShardStatus status = ShardStatus::kOk;
    Bytes inner;  // KvStoreServant result bytes when status == kOk
  };
  static DataReply decode_data_reply(const Bytes& body);

 private:
  struct Migration {
    std::uint64_t id = 0;
    KeyRange range;
    std::uint64_t post_epoch = 0;  // map epoch once the move commits
    GroupId target;
  };

  Result data_op(const std::string& operation, const Bytes& args);
  Result control(const std::string& operation, const Bytes& args);
  Result freeze(const Migration& m);
  Result donate(std::uint64_t id);
  Result install(std::uint64_t id, KeyRange range, std::uint64_t post_epoch,
                 const Bytes& bundle);
  Result release(std::uint64_t id);
  [[nodiscard]] static Result status_reply(ShardStatus status, SimTime cpu);

  void owned_add(KeyRange range);
  void owned_remove(KeyRange range);

  [[nodiscard]] Bytes encode_control() const;
  // Returns the remaining (inner) portion of the buffer.
  std::span<const std::uint8_t> decode_control(std::span<const std::uint8_t> raw);

  app::KvStoreServant inner_;
  std::uint64_t fence_epoch_ = 0;
  std::vector<KeyRange> owned_;  // sorted by lo, disjoint
  std::optional<Migration> frozen_;
  std::set<std::uint64_t> done_migrations_;  // idempotency for install/release
};

}  // namespace vdep::shard
