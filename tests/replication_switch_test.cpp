// The Fig. 5 runtime style-switch protocol, under traffic and under crashes
// injected at many points around the switch — the property the paper claims:
// "the protocol ... can tolerate the crash failure of either the primary or
// of any of the backups", with every survivor agreeing on the switch
// sequence and application state staying exactly-once.
#include <gtest/gtest.h>

#include <tuple>

#include "adaptive/switch_protocol.hpp"
#include "harness/scenario.hpp"

namespace vdep::harness {
namespace {

using replication::ReplicationStyle;

Scenario make_scenario(ReplicationStyle style, int replicas = 3, int clients = 2) {
  ScenarioConfig config;
  config.clients = clients;
  config.replicas = replicas;
  config.max_replicas = replicas;
  config.style = style;
  return Scenario(config);
}

std::vector<std::vector<replication::Replicator::SwitchRecord>> live_histories(
    Scenario& scenario, int replicas) {
  std::vector<std::vector<replication::Replicator::SwitchRecord>> out;
  for (int i = 0; i < replicas; ++i) {
    if (scenario.replica_process(i).alive()) {
      out.push_back(scenario.replicator(i).switch_history());
    }
  }
  return out;
}

TEST(SwitchProtocol, PassiveToActiveUnderTraffic) {
  Scenario scenario = make_scenario(ReplicationStyle::kWarmPassive);
  scenario.kernel().post_at(sec(1), [&] {
    scenario.replicator(1).request_style_switch(ReplicationStyle::kActive);
  });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  cycle.warmup_requests = 20;
  const auto result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 1240u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).style(), ReplicationStyle::kActive);
  }
  // After the final checkpoint synchronized everyone, all replicas execute;
  // their states converge.
  scenario.drain();
  auto digests = scenario.live_state_digests();
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);

  auto histories = live_histories(scenario, 3);
  EXPECT_EQ(adaptive::validate_switch_agreement(histories), std::nullopt);
  ASSERT_EQ(histories[0].size(), 1u);
  EXPECT_EQ(histories[0][0].from, ReplicationStyle::kWarmPassive);
  EXPECT_EQ(histories[0][0].to, ReplicationStyle::kActive);
}

TEST(SwitchProtocol, ActiveToPassiveUnderTraffic) {
  Scenario scenario = make_scenario(ReplicationStyle::kActive);
  scenario.kernel().post_at(sec(1), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kWarmPassive);
  });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  cycle.warmup_requests = 20;
  const auto result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 1240u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).style(), ReplicationStyle::kWarmPassive);
  }
  // The new primary (rank 0) kept executing; exactly-once holds.
  EXPECT_EQ(scenario.servant(0).counter(), 1240u);
  EXPECT_TRUE(scenario.replicator(0).is_responder());
  EXPECT_FALSE(scenario.replicator(1).is_responder());
}

TEST(SwitchProtocol, DuplicateInitiationsCollapse) {
  // Fig. 5 step I: several replicas initiate concurrently; duplicates are
  // discarded and exactly one switch happens.
  Scenario scenario = make_scenario(ReplicationStyle::kWarmPassive);
  scenario.kernel().post_at(sec(1), [&] {
    for (int i = 0; i < 3; ++i) {
      scenario.replicator(i).request_style_switch(ReplicationStyle::kActive);
    }
  });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 400;
  cycle.warmup_requests = 20;
  (void)scenario.run_closed_loop(cycle);

  auto histories = live_histories(scenario, 3);
  EXPECT_EQ(adaptive::validate_switch_agreement(histories), std::nullopt);
  for (const auto& h : histories) EXPECT_EQ(h.size(), 1u);
}

TEST(SwitchProtocol, BackAndForthRepeatedly) {
  Scenario scenario = make_scenario(ReplicationStyle::kWarmPassive);
  for (int k = 0; k < 4; ++k) {
    scenario.kernel().post_at(msec(500) + msec(350) * k, [&, k] {
      scenario.replicator(0).request_style_switch(
          k % 2 == 0 ? ReplicationStyle::kActive : ReplicationStyle::kWarmPassive);
    });
  }

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 1200;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 2440u);

  auto histories = live_histories(scenario, 3);
  EXPECT_EQ(adaptive::validate_switch_agreement(histories), std::nullopt);
  ASSERT_EQ(histories[0].size(), 4u);
  EXPECT_EQ(scenario.replicator(0).style(), ReplicationStyle::kWarmPassive);
  // Exactly-once through all four switches: the final primary's counter is
  // the number of unique requests. (Backups legitimately lag by a checkpoint
  // window under the final warm-passive style, so digests are not compared.)
  scenario.drain();
  EXPECT_EQ(scenario.servant(0).counter(), 2440u);
}

TEST(SwitchProtocol, SemiActiveAndColdTargetsWork) {
  Scenario scenario = make_scenario(ReplicationStyle::kActive);
  scenario.kernel().post_at(msec(500), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kSemiActive);
  });
  scenario.kernel().post_at(msec(1000), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kColdPassive);
  });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 900;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 1840u);
  EXPECT_EQ(scenario.replicator(0).style(), ReplicationStyle::kColdPassive);
  EXPECT_EQ(scenario.servant(0).counter(), 1840u);
}

TEST(SwitchProtocol, SwitchRacingWithJoinerStateTransfer) {
  // A new replica is still waiting for its state transfer when the group
  // switches warm-passive -> active; the single checkpoint must serve as
  // both the transfer and the switch synchronization point.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.kernel().post_at(sec(1), [&] { scenario.group().set_replica_count(3); });
  scenario.kernel().post_at(sec(1) + msec(5), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kActive);
  });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 820u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).style(), ReplicationStyle::kActive) << i;
  }
  auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

// A replica added after a style switch joins in the group's current style,
// not the style the scenario was configured with: a warm-passive joiner in
// an active group would never execute requests and its state would diverge.
TEST(SwitchProtocol, JoinerAfterSwitchStartsInCurrentStyle) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.kernel().post_at(msec(500),
                            [&] { scenario.group().set_style(ReplicationStyle::kActive); });
  scenario.kernel().post_at(sec(2), [&] { scenario.group().set_replica_count(3); });

  Scenario::OpenLoopConfig open;
  open.plan = app::RatePlan::constant(200);
  open.duration = sec(3);
  scenario.run_open_loop(open);
  scenario.drain();

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).style(), ReplicationStyle::kActive) << i;
  }
  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

// Crash-at-every-offset sweep: a replica dies at a parameterized delay
// around the switch point. Whatever the interleaving (before the switch
// message, during the checkpoint, after completion), the survivors must
// finish the cycle, agree on the switch sequence, and preserve exactly-once.
class SwitchCrashTest
    : public ::testing::TestWithParam<std::tuple<int /*victim*/, int /*offset_ms*/>> {};

TEST_P(SwitchCrashTest, CrashAroundSwitchPreservesInvariants) {
  const int victim = std::get<0>(GetParam());
  const int offset_ms = std::get<1>(GetParam());

  Scenario scenario = make_scenario(ReplicationStyle::kWarmPassive);
  scenario.kernel().post_at(sec(1), [&] {
    scenario.replicator(2).request_style_switch(ReplicationStyle::kActive);
  });
  scenario.fault_plan().crash_process(sec(1) + msec(offset_ms),
                                      scenario.replica_pid(victim));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 700;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(240);
  const auto result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 1440u);
  EXPECT_EQ(scenario.live_replicas(), 2);

  // All survivors agree on what switches happened.
  auto histories = live_histories(scenario, 3);
  EXPECT_EQ(adaptive::validate_switch_agreement(histories), std::nullopt)
      << "victim=" << victim << " offset=" << offset_ms;

  // Exactly-once: every live responder's counter equals unique requests.
  std::uint64_t max_counter = 0;
  for (int i = 0; i < 3; ++i) {
    if (scenario.replica_process(i).alive()) {
      max_counter = std::max(max_counter, scenario.servant(i).counter());
    }
  }
  EXPECT_EQ(max_counter, 1440u);
}

INSTANTIATE_TEST_SUITE_P(
    CrashMatrix, SwitchCrashTest,
    ::testing::Combine(::testing::Values(0, 1, 2),  // primary or backups
                       // ms around the switch point, covering every protocol
                       // step: before initiation, the AGREED switch message,
                       // quiescence, the SAFE sync checkpoint, completion.
                       ::testing::Values(-50, 0, 1, 2, 5, 10, 25, 50, 100)),
    [](const auto& info) {
      const int victim = std::get<0>(info.param);
      const int offset = std::get<1>(info.param);
      return "victim" + std::to_string(victim) + "_offset" +
             (offset < 0 ? "m" + std::to_string(-offset) : std::to_string(offset));
    });

TEST(SwitchProtocol, CrashScheduleReplaysIdenticallyAfterWireRoundTrip) {
  // The chaos shrinker ships minimal reproducers as serialized fault plans;
  // a decoded plan must drive the switch-crash scenario to the exact same
  // outcome as the original.
  auto run_once = [](const net::FaultPlan& plan) {
    Scenario scenario = make_scenario(ReplicationStyle::kWarmPassive);
    scenario.fault_plan() = plan;
    scenario.kernel().post_at(sec(1), [&] {
      scenario.replicator(2).request_style_switch(ReplicationStyle::kActive);
    });
    Scenario::CycleConfig cycle;
    cycle.requests_per_client = 400;
    cycle.warmup_requests = 20;
    cycle.max_duration = sec(240);
    const auto result = scenario.run_closed_loop(cycle);
    scenario.drain();
    return std::make_tuple(result.completed, scenario.live_replicas(),
                           scenario.live_state_digests());
  };

  Scenario probe = make_scenario(ReplicationStyle::kWarmPassive);
  net::FaultPlan plan;
  plan.crash_process(sec(1) + msec(5), probe.replica_pid(0));

  const net::FaultPlan decoded = net::FaultPlan::decode(plan.encode());
  ASSERT_EQ(plan, decoded);
  const auto original = run_once(plan);
  const auto replayed = run_once(decoded);
  EXPECT_EQ(std::get<0>(original), 840u);
  EXPECT_EQ(original, replayed);
}

}  // namespace
}  // namespace vdep::harness
