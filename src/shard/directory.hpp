// DirectoryServant — the shard map as a replicated object.
//
// The directory is an ordinary Checkpointable replicated by its own group:
// commits arrive as AGREED-ordered requests (so the map epoch advances
// atomically across the directory replicas), failover and state transfer
// come from the replicator for free, and clients read the map with a plain
// "dir.get". Epoch fencing for racing reconfigurators is the commit rule: a
// proposed map is accepted iff its epoch is exactly current+1 — a
// reconfigurator that lost the race gets kStaleEpoch, refetches, and
// recomputes against the winner's map.
//
// Operations:
//   "dir.get"     in: -                   out: {ulong status; octets map}
//   "dir.commit"  in: {octets map}        out: {ulong status; ulonglong epoch}
#pragma once

#include "shard/map.hpp"
#include "shard/shard_servant.hpp"

namespace vdep::shard {

// Every shard-layer group serves its servant under one object key; the
// directory is always group 1.
inline constexpr ObjectId kObjectKey{1};
inline constexpr GroupId kDirectoryGroup{1};

class DirectoryServant final : public replication::Checkpointable {
 public:
  DirectoryServant() = default;  // blank: a joiner restores by state transfer
  explicit DirectoryServant(ShardMap initial);

  Result invoke(const std::string& operation, const Bytes& args) override;

  [[nodiscard]] Bytes snapshot() const override { return map_.encode(); }
  void restore(std::span<const std::uint8_t> snapshot) override {
    map_ = ShardMap::decode(snapshot);
  }
  [[nodiscard]] std::size_t state_size() const override {
    return map_.encode().size();
  }
  [[nodiscard]] std::uint64_t state_digest() const override {
    return fnv1a(map_.encode());
  }

  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t commits() const { return commits_; }

  // --- client-side helpers ---------------------------------------------------
  static Bytes encode_commit(const ShardMap& map);
  struct GetReply {
    ShardStatus status = ShardStatus::kOk;
    ShardMap map;
  };
  static GetReply decode_get_reply(const Bytes& body);
  static ShardStatus decode_commit_reply(const Bytes& body);

 private:
  ShardMap map_;
  std::uint64_t commits_ = 0;
};

}  // namespace vdep::shard
