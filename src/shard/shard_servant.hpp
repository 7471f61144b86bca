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

// Every shard-layer reply opens with its status, a CDR enum; control
// operations answer the status alone.
struct StatusReply {
  ShardStatus status = ShardStatus::kOk;

  template <typename IO>
  friend void wire_fields(IO& io, StatusReply& m) {
    io.enum_in(m.status, ShardStatus::kOk, ShardStatus::kBadRequest, "unknown shard status");
  }
};

// Data operations, shard.donate and dir.get follow a kOk status with their
// result as an octet sequence: the KV result, the donated bundle, the
// encoded map.
struct ResultReply : StatusReply {
  Bytes result;

  template <typename IO>
  friend void wire_fields(IO& io, ResultReply& m) {
    io(static_cast<StatusReply&>(m));
    if (m.status == ShardStatus::kOk) io(m.result);
  }
};

class ShardServant final : public replication::Checkpointable {
 public:
  // A servant joining an existing group starts blank (no ranges); the state
  // transfer brings both the data and the control state.
  ShardServant() : ShardServant({}, 0) {}
  ShardServant(std::vector<KeyRange> owned, std::uint64_t fence_epoch);

  // Data: "put" | "get" | "erase" | "append" with DataArgs, answered with
  // a ResultReply around the KV result. Control (issued by the migration
  // controller, idempotent per migration id): "shard.freeze" with a
  // Migration, "shard.donate" with the id (answered with a ResultReply
  // around the bundle), "shard.install" with InstallArgs, "shard.release"
  // with the id. The layouts are the field lists below.
  Result invoke(const std::string& operation, const Bytes& args) override;

  struct DataArgs {
    std::uint64_t map_epoch = 0;  // the client's cached map; diagnostic only
    app::KvArgs kv;

    template <typename IO>
    friend void wire_fields(IO& io, DataArgs& m) {
      io(m.map_epoch, m.kv);
    }
  };

  struct Migration {
    std::uint64_t id = 0;
    KeyRange range;
    std::uint64_t post_epoch = 0;  // map epoch once the move commits
    GroupId target;

    template <typename IO>
    friend void wire_fields(IO& io, Migration& m) {
      io(m.id, m.range, m.post_epoch, m.target);
    }
  };

  struct InstallArgs {
    std::uint64_t id = 0;
    KeyRange range;
    std::uint64_t post_epoch = 0;
    Bytes bundle;  // what shard.donate answered

    template <typename IO>
    friend void wire_fields(IO& io, InstallArgs& m) {
      io(m.id, m.range, m.post_epoch, m.bundle);
    }
  };

  // A snapshot or delta decodes whole before it is applied: a malformed one
  // throws DecodeError and changes nothing.
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
  [[nodiscard]] const std::vector<KeyRange>& owned_ranges() const {
    return control_.owned;
  }
  [[nodiscard]] bool owns(std::uint32_t hash) const;
  [[nodiscard]] bool frozen() const { return control_.frozen.has_value(); }
  [[nodiscard]] std::uint64_t fence_epoch() const { return control_.fence_epoch; }
  // Keys currently stored whose hash falls outside every owned range
  // (serving them would violate ownership; should be empty after release).
  [[nodiscard]] std::size_t stray_keys() const;

  // --- client-side arg/result helpers ---------------------------------------
  static Bytes encode_data_args(std::uint64_t map_epoch, const std::string& key,
                                const std::string* value);
  static ResultReply decode_data_reply(const Bytes& body);

 private:
  // Fencing and migration state. It rides in full ahead of the store in
  // every snapshot and delta: it is tiny and must survive any chain
  // position, because a replica promoted from a delta chain mid-migration
  // has to keep enforcing the freeze.
  struct Control {
    std::uint64_t fence_epoch = 0;
    std::vector<KeyRange> owned;  // sorted by lo, disjoint
    std::optional<Migration> frozen;
    std::set<std::uint64_t> done;  // idempotency for install/release

    template <typename IO>
    friend void wire_fields(IO& io, Control& m) {
      io(m.fence_epoch);
      io.seq(m.owned, 8);
      io(m.frozen);
      io.seq(m.done, 8);
    }
  };

  Result data_op(const std::string& operation, const Bytes& args);
  Result control(const std::string& operation, const Bytes& args);
  Result freeze(const Migration& m);
  Result donate(std::uint64_t id);
  Result install(const InstallArgs& args);
  Result release(std::uint64_t id);
  [[nodiscard]] static Result status_reply(ShardStatus status, SimTime cpu);

  void owned_add(KeyRange range);
  void owned_remove(KeyRange range);

  app::KvStoreServant inner_;
  Control control_;
};

}  // namespace vdep::shard
