#include "shard/map.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/wire.hpp"

namespace vdep::shard {

namespace {
constexpr std::uint64_t kKeySpace = 1ULL << 32;
}  // namespace

std::uint32_t shard_hash(std::string_view key) {
  return static_cast<std::uint32_t>(
      fnv1a({reinterpret_cast<const std::uint8_t*>(key.data()), key.size()}));
}

std::string KeyRange::str() const {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

ShardMap ShardMap::uniform(int shards, std::uint64_t first_group,
                           const ShardPolicy& policy, std::uint64_t epoch) {
  if (shards < 1) throw std::invalid_argument("shard count must be >= 1");
  ShardMap map;
  map.epoch_ = epoch;
  for (int i = 0; i < shards; ++i) {
    const std::uint64_t lo = kKeySpace * static_cast<std::uint64_t>(i) /
                             static_cast<std::uint64_t>(shards);
    const std::uint64_t hi = kKeySpace * (static_cast<std::uint64_t>(i) + 1) /
                                 static_cast<std::uint64_t>(shards) -
                             1;
    ShardEntry e;
    e.shard = static_cast<std::uint32_t>(i);
    e.range = {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
    e.group = GroupId{first_group + static_cast<std::uint64_t>(i)};
    e.policy = policy;
    map.entries_.push_back(e);
  }
  return map;
}

const ShardEntry* ShardMap::lookup(std::uint32_t hash) const {
  // First entry with range.lo > hash; its predecessor is the candidate.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), hash,
      [](std::uint32_t h, const ShardEntry& e) { return h < e.range.lo; });
  if (it == entries_.begin()) return nullptr;
  const ShardEntry& e = *std::prev(it);
  return e.range.contains(hash) ? &e : nullptr;
}

const ShardEntry* ShardMap::find_shard(std::uint32_t shard_id) const {
  for (const auto& e : entries_) {
    if (e.shard == shard_id) return &e;
  }
  return nullptr;
}

std::vector<KeyRange> ShardMap::ranges_of(GroupId group) const {
  std::vector<KeyRange> out;
  for (const auto& e : entries_) {
    if (e.group == group) out.push_back(e.range);
  }
  return out;
}

std::uint32_t ShardMap::max_shard_id() const {
  std::uint32_t m = 0;
  for (const auto& e : entries_) m = std::max(m, e.shard);
  return m;
}

bool ShardMap::validate(std::string* why) const {
  auto fail = [why](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (entries_.empty()) return fail("empty map");
  if (entries_.front().range.lo != 0) {
    return fail("cover starts at " + std::to_string(entries_.front().range.lo));
  }
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const ShardEntry& e = entries_[i];
    if (e.range.lo > e.range.hi) return fail("inverted range " + e.range.str());
    if (i > 0) {
      const KeyRange& prev = entries_[i - 1].range;
      if (prev.hi == 0xffffffffu || prev.hi + 1 != e.range.lo) {
        return fail("gap/overlap between " + prev.str() + " and " + e.range.str());
      }
    }
    ids.push_back(e.shard);
  }
  if (entries_.back().range.hi != 0xffffffffu) {
    return fail("cover ends at " + std::to_string(entries_.back().range.hi));
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return fail("duplicate shard id");
  }
  return true;
}

ShardMap ShardMap::split(std::uint32_t shard_id, std::uint32_t split_point,
                         GroupId target, const ShardPolicy& policy) const {
  ShardMap next = *this;
  next.epoch_ = epoch_ + 1;
  for (auto& e : next.entries_) {
    if (e.shard != shard_id) continue;
    if (!(e.range.lo < split_point && split_point <= e.range.hi)) {
      throw std::invalid_argument("split point " + std::to_string(split_point) +
                                  " would leave an empty side of " + e.range.str());
    }
    ShardEntry upper;
    upper.shard = max_shard_id() + 1;
    upper.range = {split_point, e.range.hi};
    upper.group = target;
    upper.policy = policy;
    e.range.hi = split_point - 1;
    // Insert after `e` to keep the lo-order sort.
    auto pos = std::upper_bound(
        next.entries_.begin(), next.entries_.end(), upper.range.lo,
        [](std::uint32_t lo, const ShardEntry& x) { return lo < x.range.lo; });
    next.entries_.insert(pos, upper);
    return next;
  }
  throw std::invalid_argument("unknown shard id " + std::to_string(shard_id));
}

ShardMap ShardMap::reassign(std::uint32_t shard_id, GroupId target) const {
  ShardMap next = *this;
  next.epoch_ = epoch_ + 1;
  for (auto& e : next.entries_) {
    if (e.shard == shard_id) {
      e.group = target;
      return next;
    }
  }
  throw std::invalid_argument("unknown shard id " + std::to_string(shard_id));
}

Bytes ShardMap::encode() const { return wire::encode(*this); }

ShardMap ShardMap::decode(std::span<const std::uint8_t> raw) {
  wire::Reader r(raw);
  const auto map = r.read<ShardMap>();
  r.check(r.at_end(), "trailing bytes after shard map");
  return map;
}

}  // namespace vdep::shard
