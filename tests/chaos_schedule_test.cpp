// Schedule generator: determinism, fault-budget accounting, and the
// survivability constraints that keep generated chaos schedules fair.
#include <gtest/gtest.h>

#include <map>

#include "chaos/schedule.hpp"
#include "harness/scenario.hpp"

namespace vdep::chaos {
namespace {

harness::Scenario make_scenario(int clients = 2, int replicas = 3) {
  harness::ScenarioConfig config;
  config.clients = clients;
  config.replicas = replicas;
  config.max_replicas = replicas;
  config.style = replication::ReplicationStyle::kWarmPassive;
  return harness::Scenario(std::move(config));
}

TEST(ChaosSchedule, DeterministicInSeedAndPolicy) {
  auto scenario = make_scenario();
  SchedulePolicy policy;
  Rng a(42), b(42), c(43);
  const auto plan1 = generate_schedule(a, policy, scenario);
  const auto plan2 = generate_schedule(b, policy, scenario);
  const auto plan3 = generate_schedule(c, policy, scenario);
  EXPECT_EQ(plan1, plan2);
  EXPECT_EQ(plan1.encode(), plan2.encode());
  EXPECT_NE(plan1, plan3);  // different seed, different schedule
}

TEST(ChaosSchedule, SpendsTheWholeFaultBudget) {
  auto scenario = make_scenario();
  SchedulePolicy policy;
  policy.crash_recoveries = 2;
  policy.node_kills = 0;
  policy.loss_bursts = 3;
  policy.partitions = 2;
  policy.slow_hosts = 1;
  Rng rng(7);
  const auto plan = generate_schedule(rng, policy, scenario);

  std::map<net::FaultAction::Kind, int> counts;
  for (const auto& a : plan.actions()) ++counts[a.kind];
  EXPECT_EQ(counts[net::FaultAction::Kind::kCrashProcess], 2);
  EXPECT_EQ(counts[net::FaultAction::Kind::kRestartProcess], 2);
  EXPECT_EQ(counts[net::FaultAction::Kind::kLossBurst], 3);
  EXPECT_EQ(counts[net::FaultAction::Kind::kPartition], 2);
  EXPECT_EQ(counts[net::FaultAction::Kind::kSlowHost], 1);
}

TEST(ChaosSchedule, SilencingWindowsStayUnderDetectorThresholdWithGaps) {
  auto scenario = make_scenario();
  SchedulePolicy policy;
  policy.loss_bursts = 3;
  policy.partitions = 2;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto plan = generate_schedule(rng, policy, scenario);
    // Collect silencing windows (loss, partition) in schedule order.
    std::vector<std::pair<SimTime, SimTime>> windows;
    for (const auto& a : plan.actions()) {
      if (a.kind == net::FaultAction::Kind::kLossBurst ||
          a.kind == net::FaultAction::Kind::kPartition) {
        EXPECT_LE((a.until - a.at).count(), kMaxWindow.count()) << "seed " << seed;
        EXPECT_GE((a.until - a.at).count(), kMinWindow.count()) << "seed " << seed;
        windows.emplace_back(a.at, a.until);
      }
    }
    std::sort(windows.begin(), windows.end());
    for (std::size_t i = 1; i < windows.size(); ++i) {
      EXPECT_GE((windows[i].first - windows[i - 1].second).count(),
                kMinGap.count())
          << "seed " << seed << ": silencing faults must not chain into "
          << "detector-visible silence";
    }
  }
}

TEST(ChaosSchedule, NeverCrashesClientsAndKeepsAServingReplica) {
  auto scenario = make_scenario(/*clients=*/2, /*replicas=*/3);
  SchedulePolicy policy;
  policy.crash_recoveries = 2;
  policy.node_kills = 2;  // asks for more than survivability allows
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto plan = generate_schedule(rng, policy, scenario);
    std::set<NodeId> killed;
    for (const auto& a : plan.actions()) {
      if (a.kind == net::FaultAction::Kind::kCrashProcess ||
          a.kind == net::FaultAction::Kind::kRestartProcess) {
        bool is_replica = false;
        for (int r = 0; r < 3; ++r) {
          if (a.pid == scenario.replica_pid(r)) is_replica = true;
        }
        EXPECT_TRUE(is_replica) << "seed " << seed << ": only replicas crash";
      }
      if (a.kind == net::FaultAction::Kind::kCrashNode) {
        killed.insert(a.node);
        for (int c = 0; c < 2; ++c) {
          EXPECT_NE(a.node, NodeId{static_cast<std::uint64_t>(c)})
              << "client hosts carry the GCS leader and are never killed";
        }
      }
    }
    // Kill cap: with a crash/recovery also in the budget, at most one
    // permanent loss out of three replicas.
    EXPECT_LE(killed.size(), 1u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vdep::chaos
