// The replicated key-value store: servant semantics, snapshot/restore, and a
// full end-to-end run on the replicated stack via the servant factory —
// proving the replication API is application-agnostic.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>

#include "app/kv_store.hpp"
#include "harness/scenario.hpp"
#include "written.hpp"

namespace vdep::app {
namespace {

TEST(KvStore, PutGetEraseSemantics) {
  KvStoreServant kv;
  auto put1 = kv.invoke("put", KvStoreServant::encode_put("alpha", "1"));
  ASSERT_TRUE(put1.ok);
  EXPECT_FALSE(KvStoreServant::decode_flag(put1.output));  // fresh key

  auto put2 = kv.invoke("put", KvStoreServant::encode_put("alpha", "2"));
  EXPECT_TRUE(KvStoreServant::decode_flag(put2.output));  // overwrite

  auto got = kv.invoke("get", KvStoreServant::encode_key("alpha"));
  ASSERT_TRUE(got.ok);
  auto g = KvStoreServant::decode_get(got.output);
  EXPECT_TRUE(g.found);
  EXPECT_EQ(g.value, "2");

  auto missing = kv.invoke("get", KvStoreServant::encode_key("beta"));
  EXPECT_FALSE(KvStoreServant::decode_get(missing.output).found);

  auto erased = kv.invoke("erase", KvStoreServant::encode_key("alpha"));
  EXPECT_TRUE(KvStoreServant::decode_flag(erased.output));
  EXPECT_FALSE(KvStoreServant::decode_get(
                   kv.invoke("get", KvStoreServant::encode_key("alpha")).output)
                   .found);
  EXPECT_EQ(kv.entries(), 0u);
}

TEST(KvStore, ReadsCheaperThanWrites) {
  KvStoreServant kv;
  const auto w = kv.invoke("put", KvStoreServant::encode_put("k", "v")).cpu_time;
  const auto r = kv.invoke("get", KvStoreServant::encode_key("k")).cpu_time;
  EXPECT_GT(w, r);
}

TEST(KvStore, MalformedAndUnknownOperationsFail) {
  KvStoreServant kv;
  EXPECT_FALSE(kv.invoke("put", Bytes{1, 2}).ok);  // truncated CDR
  EXPECT_FALSE(kv.invoke("compare_and_swap", {}).ok);
}

TEST(KvStore, SnapshotRestoreAndDigest) {
  KvStoreServant a;
  (void)a.invoke("put", KvStoreServant::encode_put("x", "1"));
  (void)a.invoke("put", KvStoreServant::encode_put("y", "2"));

  KvStoreServant b;
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.restore(a.snapshot());
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(b.entries(), 2u);
  EXPECT_EQ(KvStoreServant::decode_get(
                b.invoke("get", KvStoreServant::encode_key("y")).output)
                .value,
            "2");
  // Digest is order-insensitive w.r.t. insertion (map-ordered).
  KvStoreServant c;
  (void)c.invoke("put", KvStoreServant::encode_put("y", "2"));
  (void)c.invoke("put", KvStoreServant::encode_put("x", "1"));
  EXPECT_EQ(a.state_digest(), c.state_digest());
}

TEST(KvStore, DeltaCarriesOnlyTheDirtySet) {
  KvStoreServant kv;
  for (int i = 0; i < 100; ++i) {
    (void)kv.invoke("put", KvStoreServant::encode_put("key" + std::to_string(i),
                                                      std::string(32, 'v')));
  }
  const std::uint64_t cut = kv.cut_epoch();
  (void)kv.invoke("put", KvStoreServant::encode_put("key7", "new"));

  auto delta = kv.snapshot_delta(cut);
  ASSERT_TRUE(delta.has_value());
  // One dirty key out of 100: the delta is a small fraction of the snapshot.
  EXPECT_LT(delta->size(), kv.snapshot().size() / 10);

  KvStoreServant other;
  other.restore(kv.snapshot());
  (void)other.invoke("put", KvStoreServant::encode_put("key7", "stale"));
  other.apply_delta(*delta);
  EXPECT_EQ(other.lookup("key7"), "new");
}

TEST(KvStore, DeltaReplaysErasesAsTombstones) {
  KvStoreServant a;
  (void)a.invoke("put", KvStoreServant::encode_put("keep", "1"));
  (void)a.invoke("put", KvStoreServant::encode_put("drop", "2"));

  KvStoreServant b;
  b.restore(a.snapshot());
  const std::uint64_t a_cut = a.cut_epoch();

  (void)a.invoke("erase", KvStoreServant::encode_key("drop"));
  (void)a.invoke("append", KvStoreServant::encode_append("keep", "+"));
  auto delta = a.snapshot_delta(a_cut);
  ASSERT_TRUE(delta.has_value());
  b.apply_delta(*delta);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_FALSE(b.lookup("drop").has_value());
  EXPECT_EQ(b.lookup("keep"), "1+");
}

TEST(KvStore, DeltaUnanswerableForStaleOrFutureCutsAndAfterRestore) {
  KvStoreServant kv;
  (void)kv.invoke("put", KvStoreServant::encode_put("k", "v"));
  const std::uint64_t cut = kv.cut_epoch();
  EXPECT_TRUE(kv.snapshot_delta(cut).has_value());
  // A cut that was never taken (the open epoch) is unanswerable.
  EXPECT_FALSE(kv.snapshot_delta(cut + 1).has_value());

  // restore() discards the per-key stamps: the old cut is now below the
  // delta floor and must be refused, not misanswered.
  kv.restore(kv.snapshot());
  EXPECT_FALSE(kv.snapshot_delta(cut).has_value());
  const std::uint64_t fresh = kv.cut_epoch();
  EXPECT_TRUE(kv.snapshot_delta(fresh).has_value());
}

TEST(KvStore, AnchorPlusDeltaChainMatchesMonolithicSnapshot) {
  // The replicator's chain invariant at app level: full snapshot at cut 0,
  // then a delta per cut, applied in order, lands on the same digest as one
  // final snapshot/restore.
  KvStoreServant primary;
  KvStoreServant backup;
  (void)primary.invoke("put", KvStoreServant::encode_put("a", "0"));
  backup.restore(primary.snapshot());
  std::uint64_t cut = primary.cut_epoch();
  for (int round = 0; round < 5; ++round) {
    (void)primary.invoke("put", KvStoreServant::encode_put(
                                    "k" + std::to_string(round % 2), "r" +
                                    std::to_string(round)));
    if (round == 3) (void)primary.invoke("erase", KvStoreServant::encode_key("a"));
    auto delta = primary.snapshot_delta(cut);
    ASSERT_TRUE(delta.has_value());
    cut = primary.cut_epoch();
    backup.apply_delta(*delta);
    EXPECT_EQ(backup.state_digest(), primary.state_digest());
  }
  KvStoreServant monolithic;
  monolithic.restore(primary.snapshot());
  EXPECT_EQ(monolithic.state_digest(), backup.state_digest());
}

TEST(KvStore, StateSizeTracksContent) {
  KvStoreServant kv;
  const auto empty = kv.state_size();
  (void)kv.invoke("put", KvStoreServant::encode_put("key", std::string(100, 'v')));
  EXPECT_GT(kv.state_size(), empty + 100);
}

// The delta and state-size algorithm the store replaced, kept as a reference:
// it walks every stamp and every entry on each call.
struct ReferenceStore {
  std::map<std::string, std::string> data;
  std::map<std::string, std::uint64_t> write_epoch;
  std::map<std::string, std::uint64_t> tombstone;
  std::uint64_t epoch = 1;
  std::uint64_t floor = 0;

  void written(const std::string& key) {
    write_epoch[key] = epoch;
    tombstone.erase(key);
  }
  void erased(const std::string& key) {
    write_epoch.erase(key);
    tombstone[key] = epoch;
  }
  void restore(std::span<const std::uint8_t> snapshot) {
    data.clear();
    ByteReader r(snapshot);
    const auto n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string key = r.str();
      data[std::move(key)] = r.str();
    }
    write_epoch.clear();
    tombstone.clear();
    floor = epoch;
  }
  void apply_delta(std::span<const std::uint8_t> delta) {
    ByteReader r(delta);
    const auto upserts = r.u32();
    for (std::uint32_t i = 0; i < upserts; ++i) {
      std::string key = r.str();
      data[key] = r.str();
      written(key);
    }
    const auto erasures = r.u32();
    for (std::uint32_t i = 0; i < erasures; ++i) {
      const std::string key = r.str();
      data.erase(key);
      erased(key);
    }
  }
  [[nodiscard]] std::optional<Bytes> delta(std::uint64_t since) const {
    if (since < floor || since >= epoch) return std::nullopt;
    return testing::written<ByteWriter>([this, since](auto& w) {
      std::uint32_t upserts = 0;
      for (const auto& [key, stamp] : write_epoch) upserts += stamp > since ? 1 : 0;
      w.u32(upserts);
      for (const auto& [key, stamp] : write_epoch) {
        if (stamp <= since) continue;
        w.str(key);
        w.str(data.at(key));
      }
      std::uint32_t erasures = 0;
      for (const auto& [key, stamp] : tombstone) erasures += stamp > since ? 1 : 0;
      w.u32(erasures);
      for (const auto& [key, stamp] : tombstone) {
        if (stamp > since) w.str(key);
      }
    });
  }
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 4;
    for (const auto& [key, value] : data) total += key.size() + value.size() + 8;
    return total;
  }
};

// Applies one seeded random mutation to `kv` (and to `ref` when given).
void random_mutation(std::mt19937_64& rng, KvStoreServant& kv, ReferenceStore* ref) {
  const std::string key = "k" + std::to_string(rng() % 24);
  const std::string value(rng() % 20, static_cast<char>('a' + rng() % 26));
  switch (rng() % 3) {
    case 0:
      (void)kv.invoke("put", KvStoreServant::encode_put(key, value));
      if (ref != nullptr) {
        ref->data[key] = value;
        ref->written(key);
      }
      break;
    case 1:
      (void)kv.invoke("append", KvStoreServant::encode_append(key, value));
      if (ref != nullptr) {
        ref->data[key] += value;
        ref->written(key);
      }
      break;
    default:
      if (KvStoreServant::decode_flag(
              kv.invoke("erase", KvStoreServant::encode_key(key)).output) &&
          ref != nullptr) {
        ref->data.erase(key);
        ref->erased(key);
      }
      break;
  }
}

TEST(KvStore, DeltaAndStateSizeMatchTheFullWalkUnderRandomHistories) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    KvStoreServant kv;
    ReferenceStore ref;
    // A second store whose snapshots and deltas the first one installs.
    KvStoreServant peer;
    std::uint64_t peer_cut = peer.cut_epoch();
    for (int step = 0; step < 1500; ++step) {
      const auto roll = rng() % 100;
      if (roll < 70) {
        random_mutation(rng, kv, &ref);
      } else if (roll < 82) {
        EXPECT_EQ(kv.cut_epoch(), ref.epoch++);
      } else if (roll < 92) {
        random_mutation(rng, peer, nullptr);
        random_mutation(rng, peer, nullptr);
        const auto delta = peer.snapshot_delta(peer_cut);
        ASSERT_TRUE(delta.has_value());
        peer_cut = peer.cut_epoch();
        kv.apply_delta(*delta);
        ref.apply_delta(*delta);
      } else if (roll < 96) {
        const Bytes snapshot = (rng() % 2 == 0 ? peer : kv).snapshot();
        kv.restore(snapshot);
        ref.restore(snapshot);
      } else {
        random_mutation(rng, peer, nullptr);
      }

      ASSERT_EQ(kv.state_size(), ref.size()) << "step " << step;
      ASSERT_EQ(kv.items(), ref.data) << "step " << step;
      // Every cut from just below the floor to the open epoch, answerable or
      // not, older than the last cut included.
      for (std::uint64_t since = ref.floor == 0 ? 0 : ref.floor - 1; since <= ref.epoch;
           ++since) {
        ASSERT_EQ(kv.snapshot_delta(since), ref.delta(since))
            << "step " << step << " since " << since;
      }
    }
  }
}

// --- end-to-end on the replicated stack -------------------------------------

TEST(KvStore, ReplicatedClusterSurvivesPrimaryCrash) {
  harness::ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.make_servant = [](int) { return std::make_unique<KvStoreServant>(); };
  harness::Scenario scenario(config);
  scenario.fault_plan().crash_process(msec(700), scenario.replica_pid(0));
  scenario.arm_faults();  // we drive the kernel manually: arm explicitly
  scenario.kernel().run_until(msec(300));  // group forms

  // The scenario's built-in drivers speak the micro-benchmark protocol, so
  // drive typed KV operations through its client endpoint's ORB directly.
  orb::ClientOrb& orb = scenario.client_orb(0);

  int replies = 0;
  std::string read_back;
  for (int i = 0; i < 200; ++i) {
    scenario.kernel().post(msec(2) * i, [&, i] {
      orb.invoke(scenario.object_ref(), "put",
                 KvStoreServant::encode_put("key" + std::to_string(i),
                                            "value" + std::to_string(i)),
                 [&](orb::ReplyStatus status, Bytes) {
                   if (status == orb::ReplyStatus::kNoException) ++replies;
                 });
    });
  }
  scenario.kernel().post_at(sec(2), [&] {
    orb.invoke(scenario.object_ref(), "get", KvStoreServant::encode_key("key42"),
               [&](orb::ReplyStatus, Bytes body) {
                 read_back = KvStoreServant::decode_get(body).value;
               });
  });
  scenario.kernel().run_until(sec(4));

  EXPECT_EQ(replies, 200);
  EXPECT_FALSE(scenario.replica_process(0).alive());  // the crash really fired
  EXPECT_EQ(read_back, "value42");  // written before the crash, read after
  // The promoted backup holds the full dataset.
  auto& kv = dynamic_cast<KvStoreServant&>(scenario.app(1));
  EXPECT_EQ(kv.entries(), 200u);
}

}  // namespace
}  // namespace vdep::app
