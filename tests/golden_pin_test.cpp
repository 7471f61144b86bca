// Golden pins for the replica-group plumbing behind harness::Scenario and
// shard::ShardedCluster: two traced runs that exercise every group operation
// (boot, crash + auto-recover, growth by state transfer, shrink, checkpoint
// cadence changes, an online split) and hash what they leave behind — the
// canonical trace text and the live replicas' state digests. Any change to
// process naming, PID assignment, wiring order or event order moves a hash.
//
// Neither run switches style before a join, so the pins do not depend on
// which style a joiner starts in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/export.hpp"
#include "shard/cluster.hpp"
#include "util/bytes.hpp"

namespace vdep {
namespace {

std::uint64_t fnv1a_text(const std::string& text) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::uint64_t fnv1a_digests(const std::vector<std::uint64_t>& digests) {
  ByteWriter w;
  for (std::uint64_t d : digests) w.u64(d);
  return fnv1a(std::move(w).take());
}

// The scenario's group controller: group() where the harness exposes one,
// otherwise the scenario itself.
template <typename S>
auto group_of(S& s, int) -> decltype(s.group()) {
  return s.group();
}
template <typename S>
S& group_of(S& s, long) {
  return s;
}

TEST(GoldenPin, ScenarioGroupLifecycle) {
  harness::ScenarioConfig config;
  config.seed = 11;
  config.clients = 2;
  config.replicas = 2;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.auto_recover = true;
  config.tracing = true;
  harness::Scenario scenario(config);
  knobs::ReplicaGroupController& group = group_of(scenario, 0);

  scenario.fault_plan().crash_process(msec(600), scenario.replica_pid(1));
  scenario.fault_plan().restart_process(msec(900), scenario.replica_pid(1));
  scenario.kernel().post_at(msec(1400), [&] { group.set_replica_count(3); });
  scenario.kernel().post_at(msec(1800), [&] { group.set_checkpoint_interval(msec(30)); });
  scenario.kernel().post_at(msec(2400), [&] { group.set_replica_count(2); });

  harness::Scenario::OpenLoopConfig open;
  open.plan = app::RatePlan::constant(150);
  open.duration = sec(3);
  const auto result = scenario.run_open_loop(open);
  scenario.drain(msec(500));

  EXPECT_GT(result.totals.completed, 400u);
  EXPECT_EQ(scenario.live_replicas(), 2);
  EXPECT_EQ(group.checkpoint_interval(), msec(30));
  EXPECT_EQ(scenario.kernel().tracer().spans_dropped(), 0u);

  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(fnv1a_digests(digests), 0xddf968f184deb065ull) << std::hex << fnv1a_digests(digests);
  EXPECT_EQ(fnv1a_text(obs::render_text(scenario.kernel().tracer())), 0x5317384c28f95020ull)
      << std::hex << fnv1a_text(obs::render_text(scenario.kernel().tracer()));
}

TEST(GoldenPin, ShardedClusterGroupLifecycle) {
  shard::ShardedClusterConfig config;
  config.seed = 7;
  config.shards = 2;
  config.clients = 2;
  config.client_hosts = 2;
  config.server_hosts = 4;
  config.tracing = true;
  config.default_policy.style =
      static_cast<std::uint8_t>(replication::ReplicationStyle::kWarmPassive);
  shard::ShardedCluster cluster(config);
  const std::vector<GroupId> groups = cluster.data_groups();
  ASSERT_EQ(groups.size(), 2u);

  bool migrated = false;
  cluster.kernel().post_at(msec(450), [&] {
    const shard::ShardEntry& first = cluster.initial_map().entries().front();
    cluster.split_shard(first.shard, first.range.lo + (first.range.hi - first.range.lo) / 2,
                        cluster.config().default_policy,
                        [&](const shard::MigrationController::Record& rec) {
                          migrated = rec.success;
                        });
  });
  cluster.fault_plan().crash_process(msec(700), cluster.replica_pid(groups[1], 0));
  cluster.fault_plan().restart_process(msec(1000), cluster.replica_pid(groups[1], 0));
  cluster.kernel().post_at(msec(1500),
                           [&] { cluster.controller(groups[1]).set_replica_count(3); });

  shard::ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = 80;
  const auto result = cluster.run_workload(wc);
  for (int i = 0; i < 10 && !cluster.migration().idle(); ++i) cluster.drain(msec(500));
  cluster.drain(msec(500));

  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_TRUE(migrated);
  EXPECT_EQ(cluster.controller(groups[1]).replica_count(), 3);
  EXPECT_EQ(cluster.kernel().tracer().spans_dropped(), 0u);

  std::vector<std::uint64_t> digests;
  for (GroupId g : cluster.data_groups()) {
    for (int n = 0; n < cluster.replicas_in(g); ++n) {
      if (cluster.replica_live(g, n)) digests.push_back(cluster.shard_servant(g, n).state_digest());
    }
  }
  ASSERT_EQ(digests.size(), 7u);
  EXPECT_EQ(fnv1a_digests(digests), 0xb1cc05b3c0de9f94ull) << std::hex << fnv1a_digests(digests);
  EXPECT_EQ(fnv1a_text(obs::render_text(cluster.kernel().tracer())), 0x814f35cc8915c2baull)
      << std::hex << fnv1a_text(obs::render_text(cluster.kernel().tracer()));
}

}  // namespace
}  // namespace vdep
