// End-to-end sharded cluster: routed workloads across many groups, online
// splits with in-flight clients, stale-map retry, and per-shard knobs.
#include <gtest/gtest.h>

#include "chaos/history.hpp"
#include "shard/cluster.hpp"

namespace vdep::shard {
namespace {

ShardedClusterConfig small_cluster(int shards) {
  ShardedClusterConfig cc;
  cc.seed = 7;
  cc.shards = shards;
  cc.clients = 2;
  cc.client_hosts = 2;
  cc.server_hosts = 4;
  return cc;
}

TEST(ShardClusterTest, WorkloadRoutesAcrossShardsAndStaysOwned) {
  ShardedCluster cluster(small_cluster(4));
  ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = 40;
  const auto result = cluster.run_workload(wc);

  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(result.completed, 80u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.throughput_rps, 0.0);

  // Every live replica holds only keys it owns, and at least two shards saw
  // traffic (the workload key space straddles the hash ring).
  int shards_hit = 0;
  for (GroupId g : cluster.data_groups()) {
    ASSERT_GT(cluster.replicas_in(g), 0);
    ASSERT_TRUE(cluster.replica_live(g, 0));
    EXPECT_EQ(cluster.shard_servant(g, 0).stray_keys(), 0u);
    if (!cluster.shard_servant(g, 0).store().items().empty()) ++shards_hit;
  }
  EXPECT_GE(shards_hit, 2);
  // Per-shard request counters were populated.
  std::uint64_t routed = 0;
  for (const auto& e : cluster.initial_map().entries()) {
    routed += cluster.metrics().counter("shard." + std::to_string(e.shard) +
                                        ".requests");
  }
  EXPECT_GE(routed, result.completed);  // >=: route retries count too
  EXPECT_GT(cluster.router(0).routed(), 0u);
}

TEST(ShardClusterTest, OnlineSplitMovesKeysExactlyOnce) {
  ShardedCluster cluster(small_cluster(2));

  // Seed a known key, then split its shard right at the key's hash while a
  // workload is in flight: the upper side (containing the key) moves.
  const std::string key = "moving-key";
  const std::uint32_t h = shard_hash(key);
  const ShardEntry before = *cluster.initial_map().lookup(h);

  bool seeded = false;
  cluster.kernel().post_at(msec(250), [&] {
    cluster.router(0).put(key, "v1", [&](ShardStatus status, const Bytes&) {
      seeded = status == ShardStatus::kOk;
    });
  });

  const std::uint32_t split_point = std::max(h, before.range.lo + 1);
  bool migrated = false;
  cluster.kernel().post_at(msec(450), [&] {
    ShardPolicy policy = cluster.config().default_policy;
    cluster.split_shard(before.shard, split_point, policy,
                        [&](const MigrationController::Record& rec) {
                          migrated = rec.success;
                        });
  });

  ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = 40;
  const auto result = cluster.run_workload(wc);
  for (int i = 0; i < 10 && !cluster.migration().idle(); ++i) cluster.drain(msec(500));
  cluster.drain();

  EXPECT_TRUE(result.all_done);
  ASSERT_TRUE(seeded);
  ASSERT_TRUE(migrated);

  const ShardMap& map = cluster.directory_map();
  EXPECT_EQ(map.epoch(), cluster.initial_map().epoch() + 1);
  std::string why;
  EXPECT_TRUE(map.validate(&why)) << why;

  // The key now lives at the new owner — and only there.
  const ShardEntry* owner = map.lookup(h);
  ASSERT_NE(owner, nullptr);
  EXPECT_NE(owner->group, before.group);
  int holders = 0;
  for (GroupId g : cluster.data_groups()) {
    if (!cluster.replica_live(g, 0)) continue;
    auto& servant = cluster.shard_servant(g, 0);
    EXPECT_EQ(servant.stray_keys(), 0u) << "group " << g.value();
    EXPECT_FALSE(servant.frozen());
    if (servant.store().lookup(key)) {
      ++holders;
      EXPECT_EQ(g, owner->group);
    }
  }
  EXPECT_EQ(holders, 1);
  EXPECT_GT(cluster.migration().bytes_moved_total(), 0u);
}

// A router still holding the pre-split map routes a moved key to the old
// owner, is bounced kWrongShard, refreshes the directory and retries — the
// epoch-fenced retry loop of the shard protocol.
TEST(ShardClusterTest, StaleRouterRefreshesAndRetries) {
  ShardedCluster cluster(small_cluster(2));

  const std::string key = "fenced-key";
  const std::uint32_t h = shard_hash(key);
  const ShardEntry before = *cluster.initial_map().lookup(h);

  bool migrated = false;
  cluster.kernel().post_at(msec(300), [&] {
    cluster.split_shard(before.shard, std::max(h, before.range.lo + 1),
                        cluster.config().default_policy,
                        [&](const MigrationController::Record& rec) {
                          migrated = rec.success;
                        });
  });
  cluster.kernel().run_until(sec(5));
  for (int i = 0; i < 10 && !cluster.migration().idle(); ++i) cluster.drain(msec(500));
  ASSERT_TRUE(migrated);

  // Router 0 never issued a request, so its cached map is still epoch 1.
  auto& router = cluster.router(0);
  ASSERT_EQ(router.map_epoch(), cluster.initial_map().epoch());

  ShardStatus status = ShardStatus::kBadRequest;
  bool done = false;
  router.put(key, "v2", [&](ShardStatus s, const Bytes&) {
    status = s;
    done = true;
  });
  cluster.drain(sec(2));

  ASSERT_TRUE(done);
  EXPECT_EQ(status, ShardStatus::kOk);
  EXPECT_GT(router.stale_rejections(), 0u);  // bounced at least once
  EXPECT_GT(router.refreshes(), 0u);
  EXPECT_EQ(router.map_epoch(), cluster.initial_map().epoch() + 1);
}

// Per-shard policy actuation: each shard's group has its own knob stack, so
// one shard can switch replication style while the others keep theirs.
TEST(ShardClusterTest, PerShardKnobsActuateIndependently) {
  auto cc = small_cluster(2);
  cc.default_policy.style =
      static_cast<std::uint8_t>(replication::ReplicationStyle::kWarmPassive);
  ShardedCluster cluster(cc);
  cluster.kernel().run_until(msec(300));  // let groups form

  const auto groups = cluster.data_groups();
  ASSERT_EQ(groups.size(), 2u);
  auto& controller = cluster.controller(groups[0]);
  controller.set_style(replication::ReplicationStyle::kActive);
  cluster.drain(sec(1));

  EXPECT_EQ(cluster.replicator(groups[0], 0).style(),
            replication::ReplicationStyle::kActive);
  EXPECT_EQ(cluster.replicator(groups[1], 0).style(),
            replication::ReplicationStyle::kWarmPassive);
}

// A shard replica grown after a style switch joins in the group's current
// style, even when the switch was started on a replicator directly rather
// than through the group's controller.
TEST(ShardClusterTest, GrownReplicaJoinsInCurrentStyle) {
  auto cc = small_cluster(2);
  cc.default_policy.style =
      static_cast<std::uint8_t>(replication::ReplicationStyle::kWarmPassive);
  ShardedCluster cluster(cc);
  const GroupId g = cluster.data_groups().front();
  cluster.kernel().post_at(msec(500), [&] {
    cluster.replicator(g, 0).request_style_switch(replication::ReplicationStyle::kActive);
  });
  cluster.kernel().post_at(sec(1), [&] { cluster.controller(g).set_replica_count(3); });

  ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = 150;
  const auto result = cluster.run_workload(wc);
  cluster.drain(msec(500));

  EXPECT_TRUE(result.all_done);
  ASSERT_EQ(cluster.replicas_in(g), 3);
  std::vector<std::uint64_t> digests;
  for (int n = 0; n < 3; ++n) {
    ASSERT_TRUE(cluster.replica_live(g, n)) << n;
    EXPECT_EQ(cluster.replicator(g, n).style(), replication::ReplicationStyle::kActive) << n;
    digests.push_back(cluster.shard_servant(g, n).state_digest());
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

// The fault plan strikes a server host's GCS daemon like any other process on
// it: crash_node takes the daemon down with the replicas (it stays down after
// restore_node, like they do), and crash_process reaches a daemon by PID.
TEST(ShardClusterTest, CrashNodeTakesDownItsDaemon) {
  ShardedCluster cluster(small_cluster(2));
  const GroupId g = cluster.data_groups().front();
  const NodeId crashed = cluster.replica_process(g, 0).host();
  const NodeId other = cluster.replica_process(g, 1).host();
  ASSERT_NE(crashed, other);
  gcs::Daemon& crashed_daemon = cluster.daemon_on(crashed);
  gcs::Daemon& other_daemon = cluster.daemon_on(other);
  cluster.fault_plan().crash_node(msec(500), crashed);
  cluster.fault_plan().restore_node(msec(900), crashed);
  cluster.fault_plan().crash_process(msec(600), other_daemon.id());
  cluster.arm_faults();
  cluster.kernel().run_until(msec(1200));

  EXPECT_FALSE(cluster.replica_process(g, 0).alive());
  EXPECT_FALSE(crashed_daemon.alive());
  EXPECT_FALSE(other_daemon.alive());
  // Daemons on untouched hosts keep running.
  EXPECT_TRUE(
      cluster.daemon_on(cluster.replica_process(cluster.directory_group(), 0).host()).alive());
}

}  // namespace
}  // namespace vdep::shard
