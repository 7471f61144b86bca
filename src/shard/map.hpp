// ShardMap — the epoch-versioned partition directory entry format.
//
// The key space is the 32-bit FNV-1a hash of the application key; a map is a
// total, non-overlapping cover of [0, 2^32) by inclusive ranges, each bound
// to one replica group together with that shard's dependability policy
// (replication style, replica count, checkpoint profile). Maps are immutable
// values: every reconfiguration (a split) produces a successor map with
// epoch+1, and the epoch is the fencing token clients and servants compare.
//
// The wire format is pinned by a golden-bytes test: magic "SMAP", a version
// byte, then the sorted entry table (ByteWriter little-endian framing, like
// every other infrastructure codec in this repo).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace vdep::shard {

// Position of an application key in the shard key space.
[[nodiscard]] std::uint32_t shard_hash(std::string_view key);

// Inclusive range of hash positions.
struct KeyRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  [[nodiscard]] bool contains(std::uint32_t h) const { return h >= lo && h <= hi; }
  [[nodiscard]] std::uint64_t width() const {
    return static_cast<std::uint64_t>(hi) - lo + 1;
  }
  [[nodiscard]] std::string str() const;

  template <typename IO>
  friend void wire_fields(IO& io, KeyRange& m) {
    io(m.lo, m.hi);
  }

  friend bool operator==(const KeyRange&, const KeyRange&) = default;
};

// Per-shard dependability policy — the paper's low-level knobs made a
// property of the partition, not of the deployment.
struct ShardPolicy {
  std::uint8_t style = 1;  // replication::ReplicationStyle as raw byte
  std::uint8_t replicas = 2;
  std::uint32_t checkpoint_every_requests = 25;
  // Delta chains: every 8th group checkpoint is a full anchor. Most shards
  // are idle in most checkpoint periods, so the deltas between anchors are
  // small (ScenarioConfig keeps the paper's all-full protocol, 1).
  std::uint32_t checkpoint_anchor_interval = 8;

  friend bool operator==(const ShardPolicy&, const ShardPolicy&) = default;
};

struct ShardEntry {
  std::uint32_t shard = 0;  // stable shard id (never reused within a lineage)
  KeyRange range;
  GroupId group;  // replica group currently owning the range
  ShardPolicy policy;

  template <typename IO>
  friend void wire_fields(IO& io, ShardEntry& m) {
    io(m.shard, m.range, m.group, m.policy.style, m.policy.replicas,
       m.policy.checkpoint_every_requests, m.policy.checkpoint_anchor_interval);
  }

  friend bool operator==(const ShardEntry&, const ShardEntry&) = default;
};

class ShardMap {
 public:
  ShardMap() = default;

  // A fresh map at `epoch` covering the key space with `shards` equal-width
  // ranges, shard i owned by group {first_group + i} under `policy`.
  static ShardMap uniform(int shards, std::uint64_t first_group,
                          const ShardPolicy& policy, std::uint64_t epoch = 1);

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const std::vector<ShardEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // Binary search by hash position; nullptr only if the map is empty or
  // malformed (a valid map covers every position).
  [[nodiscard]] const ShardEntry* lookup(std::uint32_t hash) const;
  [[nodiscard]] const ShardEntry* lookup_key(std::string_view key) const {
    return lookup(shard_hash(key));
  }
  [[nodiscard]] const ShardEntry* find_shard(std::uint32_t shard_id) const;
  [[nodiscard]] std::vector<KeyRange> ranges_of(GroupId group) const;
  [[nodiscard]] std::uint32_t max_shard_id() const;

  // Full cover, sorted, no overlap, unique shard ids. `why` (optional)
  // receives the first violation.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

  // Successor map (epoch+1) where the upper part [split_point, hi] of
  // `shard_id`'s range becomes a new shard on `target` under `policy`.
  // Requires lo < split_point <= hi: both sides must be non-empty — a
  // split that would create an empty range is a caller bug.
  // Throws std::invalid_argument otherwise.
  [[nodiscard]] ShardMap split(std::uint32_t shard_id, std::uint32_t split_point,
                               GroupId target, const ShardPolicy& policy) const;

  [[nodiscard]] Bytes encode() const;
  // Throws DecodeError on malformed input.
  static ShardMap decode(std::span<const std::uint8_t> raw);
  template <typename IO>
  friend void wire_fields(IO& io, ShardMap& m) {
    std::array<std::uint8_t, 4> magic = kMagic;
    std::uint8_t version = kVersion;
    io(magic[0], magic[1], magic[2], magic[3]);
    io.check(magic == kMagic, "bad shard map magic");
    io(version);
    io.check(version == kVersion, "unsupported shard map version");
    io(m.epoch_);
    io.seq(m.entries_, 30);  // one entry's fixed-width fields
  }

  friend bool operator==(const ShardMap&, const ShardMap&) = default;

 private:
  static constexpr std::array<std::uint8_t, 4> kMagic = {'S', 'M', 'A', 'P'};
  static constexpr std::uint8_t kVersion = 1;

  std::uint64_t epoch_ = 0;
  std::vector<ShardEntry> entries_;  // sorted by range.lo
};

}  // namespace vdep::shard
