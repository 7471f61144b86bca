// Client-side majority voting (paper Sec. 3.1: "it can do majority voting on
// all the responses it receives, if Byzantine failures can occur"): a
// value-corrupted replica must be outvoted, and the group's recovery
// machinery (crash + re-provision) must restore full redundancy.
#include <gtest/gtest.h>

#include "app/test_app.hpp"
#include "harness/scenario.hpp"

namespace vdep::harness {
namespace {

using replication::ReplicationStyle;

TEST(Voting, CorruptReplicaOutvoted) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  config.response_policy = replication::ResponsePolicy::kMajorityVoting;
  Scenario scenario(config);

  // Value fault: silently corrupt replica 0's state mid-run. Its replies
  // diverge from the other two from then on.
  scenario.kernel().post_at(sec(1), [&] {
    auto snapshot = scenario.servant(0).snapshot();
    snapshot[8] ^= 0xff;  // flip bits in the state digest: replies diverge
    scenario.servant(0).restore(snapshot);
  });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  // Every request completed: two honest replicas always form a majority.
  EXPECT_EQ(result.completed, 820u);
  // The corrupted replica really did diverge — the vote was load-bearing.
  auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_NE(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(Voting, WorksAcrossReplicaCrash) {
  // After a crash the view shrinks to 2; the majority threshold follows the
  // freshest view size the replicas report, so 2-of-2 still completes.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  config.response_policy = replication::ResponsePolicy::kMajorityVoting;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(2));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 820u);
}

TEST(Recovery, CrashThenReprovisionRestoresRedundancy) {
  // The full operational loop: lose a replica, re-provision through the
  // NumReplicas knob, survive a second fault that would otherwise have been
  // fatal for the remaining pair's fault-tolerance budget.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  Scenario scenario(config);

  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));
  scenario.kernel().post_at(sec(2), [&] {
    scenario.group().set_replica_count(3);  // new process on the freed host
  });
  scenario.fault_plan().crash_process(sec(3), scenario.replica_pid(1));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 2000;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(240);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 2020u);
  EXPECT_EQ(scenario.live_replicas(), 2);  // replica 2 + the replacement
  auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(Recovery, WarmPassiveReprovisionedBackupCanPromote) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 2;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);

  // Backup dies; a replacement joins (state transfer); then the primary
  // dies and the replacement must take over correctly.
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(1));
  scenario.kernel().post_at(sec(2), [&] { scenario.group().set_replica_count(2); });
  scenario.fault_plan().crash_process(sec(3), scenario.replica_pid(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 2000;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(240);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 2020u);
  EXPECT_EQ(scenario.live_replicas(), 1);
  // Exactly-once through join + state transfer + promotion + replay.
  EXPECT_EQ(scenario.servant(2).counter(), 2020u);
}

}  // namespace
}  // namespace vdep::harness
