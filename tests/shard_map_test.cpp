// ShardMap codec and algebra: golden wire bytes, random round-trip
// properties, split/reassign edge cases, and the servant/directory fencing
// statuses (wrong-shard, frozen, stale-epoch).
#include <gtest/gtest.h>

#include <stdexcept>

#include "orb/cdr.hpp"
#include "shard/directory.hpp"
#include "shard/map.hpp"
#include "shard/shard_servant.hpp"
#include "util/rng.hpp"

namespace vdep::shard {
namespace {

ShardPolicy test_policy() {
  ShardPolicy p;
  p.style = 0;
  p.replicas = 3;
  p.checkpoint_every_requests = 10;
  p.checkpoint_anchor_interval = 4;
  return p;
}

TEST(ShardMapTest, UniformCoversKeySpace) {
  for (int shards : {1, 2, 3, 7, 32, 64}) {
    const ShardMap map = ShardMap::uniform(shards, 10, test_policy());
    std::string why;
    EXPECT_TRUE(map.validate(&why)) << shards << " shards: " << why;
    EXPECT_EQ(map.size(), static_cast<std::size_t>(shards));
    EXPECT_EQ(map.epoch(), 1u);
    // Every probe position resolves to exactly the entry containing it.
    for (std::uint32_t h : {0u, 1u, 0x7fffffffu, 0xfffffffeu, 0xffffffffu}) {
      const ShardEntry* e = map.lookup(h);
      ASSERT_NE(e, nullptr);
      EXPECT_TRUE(e->range.contains(h));
      EXPECT_EQ(e->group.value(), 10u + e->shard);
    }
  }
}

// The wire format is pinned: these bytes must never change without a version
// bump (maps are replicated state and travel in AGREED commits).
TEST(ShardMapTest, GoldenBytes) {
  const ShardMap map = ShardMap::uniform(1, 7, test_policy(), /*epoch=*/5);
  const Bytes raw = map.encode();
  const std::uint8_t expected[] = {
      'S', 'M', 'A', 'P',       // magic
      0x01,                     // version
      5, 0, 0, 0, 0, 0, 0, 0,   // epoch u64 LE
      1, 0, 0, 0,               // entry count
      0, 0, 0, 0,               // shard id
      0, 0, 0, 0,               // range.lo
      0xff, 0xff, 0xff, 0xff,   // range.hi
      7, 0, 0, 0, 0, 0, 0, 0,   // group u64 LE
      0,                        // policy.style (active)
      3,                        // policy.replicas
      10, 0, 0, 0,              // checkpoint_every_requests
      4, 0, 0, 0,               // checkpoint_anchor_interval
  };
  ASSERT_EQ(raw.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(raw[i], expected[i]) << "byte " << i;
  }
  EXPECT_EQ(ShardMap::decode(raw), map);
}

TEST(ShardMapTest, RandomSplitReassignRoundTripProperty) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    ShardMap map = ShardMap::uniform(
        1 + static_cast<int>(rng.below(8)), 10, test_policy());
    std::uint64_t next_group = 100;
    for (int step = 0; step < 12; ++step) {
      const auto& entries = map.entries();
      const ShardEntry pick =
          entries[static_cast<std::size_t>(rng.below(entries.size()))];
      if (rng.chance(0.3)) {
        map = map.reassign(pick.shard, GroupId{next_group++});
      } else if (pick.range.lo < pick.range.hi) {
        const std::uint32_t point = static_cast<std::uint32_t>(
            rng.range(static_cast<std::int64_t>(pick.range.lo) + 1,
                      static_cast<std::int64_t>(pick.range.hi)));
        ShardPolicy policy = test_policy();
        policy.style = static_cast<std::uint8_t>(rng.below(5));
        policy.replicas = static_cast<std::uint8_t>(1 + rng.below(4));
        map = map.split(pick.shard, point, GroupId{next_group++}, policy);
      }
      std::string why;
      ASSERT_TRUE(map.validate(&why)) << why;
      ASSERT_EQ(ShardMap::decode(map.encode()), map);  // codec round-trip
    }
    EXPECT_EQ(map.epoch(), 13u);
  }
}

TEST(ShardMapTest, SplitEdgeCases) {
  const ShardMap map = ShardMap::uniform(2, 10, test_policy());
  const ShardEntry first = map.entries().front();

  // Splitting at lo would leave the lower side empty.
  EXPECT_THROW(map.split(first.shard, first.range.lo, GroupId{50}, test_policy()),
               std::invalid_argument);
  // Below the range / above the range are equally invalid.
  EXPECT_THROW(map.split(first.shard, 0, GroupId{50}, test_policy()),
               std::invalid_argument);
  // Unknown shard id.
  EXPECT_THROW(map.split(99, 1234, GroupId{50}, test_policy()),
               std::invalid_argument);
  // Splitting a single-key range is impossible: no valid split point exists.
  ShardMap narrow = map;
  while (narrow.entries().front().range.width() > 1) {
    const ShardEntry e = narrow.entries().front();
    narrow = narrow.split(e.shard, e.range.lo + 1, GroupId{1000 + narrow.epoch()},
                          test_policy());
    // The lower side is now exactly one key wide; loop terminates first pass.
    break;
  }
  const ShardEntry single = narrow.entries().front();
  ASSERT_EQ(single.range.width(), 1u);
  EXPECT_THROW(narrow.split(single.shard, single.range.lo, GroupId{51}, test_policy()),
               std::invalid_argument);

  // Split at hi is the minimal legal upper side: exactly one key moves.
  const ShardMap at_hi =
      map.split(first.shard, first.range.hi, GroupId{52}, test_policy());
  std::string why;
  ASSERT_TRUE(at_hi.validate(&why)) << why;
  EXPECT_EQ(at_hi.epoch(), map.epoch() + 1);
  const ShardEntry* moved = at_hi.lookup(first.range.hi);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->group, GroupId{52});
  EXPECT_EQ(moved->range.width(), 1u);
  EXPECT_EQ(moved->shard, map.max_shard_id() + 1);  // fresh id, never reused
  // The remainder still belongs to the original group.
  const ShardEntry* kept = at_hi.lookup(first.range.hi - 1);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->group, first.group);
  EXPECT_EQ(kept->shard, first.shard);
}

TEST(ShardMapTest, ValidateRejectsMalformedMaps) {
  std::string why;
  EXPECT_FALSE(ShardMap{}.validate(&why));
  EXPECT_EQ(why, "empty map");

  // Craft a gapped cover by re-encoding a valid map and patching entry 1's lo.
  const ShardMap good = ShardMap::uniform(2, 10, test_policy());
  Bytes raw = good.encode();
  // Entry layout: 17-byte header (magic+version+epoch+count), 30 B per
  // entry; the second entry's lo sits after its 4-byte shard id.
  const std::size_t lo_offset = 17 + 30 + 4;
  raw[lo_offset] ^= 0x01;
  EXPECT_FALSE(ShardMap::decode(raw).validate(&why));
  EXPECT_NE(why.find("gap/overlap"), std::string::npos) << why;
}

TEST(ShardMapTest, DecodeRejectsBadMagicAndTrailingBytes) {
  const ShardMap map = ShardMap::uniform(1, 10, test_policy());
  Bytes raw = map.encode();
  Bytes bad_magic = raw;
  bad_magic[0] = 'X';
  EXPECT_THROW(ShardMap::decode(bad_magic), DecodeError);
  Bytes trailing = raw;
  trailing.push_back(0);
  EXPECT_THROW(ShardMap::decode(trailing), DecodeError);
}

// Servant-side fencing: a stale router lands on the wrong group and is
// bounced with kWrongShard; a frozen range answers kFrozen until released.
TEST(ShardServantTest, FencesStaleRoutesAndFrozenRanges) {
  const std::string key = "user42";
  const std::uint32_t h = shard_hash(key);
  // Owns only the half NOT containing the key.
  KeyRange other = h < 0x80000000u ? KeyRange{0x80000000u, 0xffffffffu}
                                   : KeyRange{0u, 0x7fffffffu};
  ShardServant wrong({other}, 1);
  const std::string value = "v";
  auto result = wrong.invoke("put", ShardServant::encode_data_args(1, key, &value));
  EXPECT_EQ(ShardServant::decode_data_reply(result.output).status,
            ShardStatus::kWrongShard);

  ShardServant owner({{0u, 0xffffffffu}}, 1);
  result = owner.invoke("put", ShardServant::encode_data_args(1, key, &value));
  EXPECT_EQ(ShardServant::decode_data_reply(result.output).status, ShardStatus::kOk);

  // Freeze the sub-range around the key: mid-donation requests bounce.
  orb::CdrWriter w;
  w.ulonglong(1);  // migration id
  w.ulong(h);      // lo
  w.ulong(h);      // hi
  w.ulonglong(2);  // post_epoch
  w.ulonglong(99); // target group
  auto freeze_reply = owner.invoke("shard.freeze", std::move(w).take());
  orb::CdrReader fr(freeze_reply.output);  // control replies carry status only
  ASSERT_EQ(static_cast<ShardStatus>(fr.ulong()), ShardStatus::kOk);
  result = owner.invoke("put", ShardServant::encode_data_args(1, key, &value));
  EXPECT_EQ(ShardServant::decode_data_reply(result.output).status,
            ShardStatus::kFrozen);
}

// Directory-side fencing: a commit must continue the epoch chain exactly;
// anything else is kStaleEpoch and the map in force does not change.
TEST(DirectoryServantTest, CommitRequiresNextEpoch) {
  const ShardMap initial = ShardMap::uniform(2, 10, test_policy());
  DirectoryServant dir(initial);

  const ShardMap next =
      initial.split(0, initial.entries().front().range.hi, GroupId{50}, test_policy());
  ASSERT_EQ(next.epoch(), initial.epoch() + 1);

  // Skipping an epoch (or replaying an old one) is rejected.
  const ShardMap skipped = next.split(
      next.entries().front().shard, next.entries().front().range.hi,
      GroupId{51}, test_policy());
  auto reply = dir.invoke("dir.commit", DirectoryServant::encode_commit(skipped));
  EXPECT_EQ(DirectoryServant::decode_commit_reply(reply.output),
            ShardStatus::kStaleEpoch);
  EXPECT_EQ(dir.map().epoch(), initial.epoch());

  reply = dir.invoke("dir.commit", DirectoryServant::encode_commit(next));
  EXPECT_EQ(DirectoryServant::decode_commit_reply(reply.output), ShardStatus::kOk);
  EXPECT_EQ(dir.map().epoch(), next.epoch());

  // A retransmitted commit of the map already in force is accepted
  // idempotently (the coordinator's retry path), but a *different* map at
  // the same epoch lost the reconfiguration race.
  reply = dir.invoke("dir.commit", DirectoryServant::encode_commit(next));
  EXPECT_EQ(DirectoryServant::decode_commit_reply(reply.output), ShardStatus::kOk);
  const ShardMap rival = initial.split(
      0, initial.entries().front().range.hi, GroupId{77}, test_policy());
  reply = dir.invoke("dir.commit", DirectoryServant::encode_commit(rival));
  EXPECT_EQ(DirectoryServant::decode_commit_reply(reply.output),
            ShardStatus::kStaleEpoch);

  // dir.get returns the committed map.
  reply = dir.invoke("dir.get", {});
  const auto got = DirectoryServant::decode_get_reply(reply.output);
  EXPECT_EQ(got.status, ShardStatus::kOk);
  EXPECT_EQ(got.map, next);
}

}  // namespace
}  // namespace vdep::shard
