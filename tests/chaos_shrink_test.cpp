// Shrinker: a noisy failing schedule is delta-debugged down to a minimal
// reproducer that still fails, and the reproducer replays deterministically.
#include <gtest/gtest.h>

#include "chaos/shrink.hpp"
#include "harness/scenario.hpp"

namespace vdep::chaos {
namespace {

TrialConfig bug_trial() {
  TrialConfig config;
  config.seed = 5;
  config.clients = 2;
  config.replicas = 3;
  config.ops_per_client = 60;
  config.append_ratio = 1.0;       // every retried op exposes the bug
  config.inject_dedup_bug = true;  // the deliberately planted safety bug
  return config;
}

// The trigger — a client/replica partition that cuts an in-flight reply and
// forces a retransmission — buried in five decoy fault actions.
net::FaultPlan noisy_failing_plan(const TrialConfig& config) {
  harness::ScenarioConfig sc;
  sc.clients = config.clients;
  sc.replicas = config.replicas;
  sc.max_replicas = config.replicas;
  sc.style = config.style;
  harness::Scenario probe(sc);

  net::FaultPlan plan;
  plan.slow_host(msec(320), msec(480), probe.replica_host(1), 3.0);
  plan.partition_window(msec(500), msec(950),
                        {probe.client_host(0), probe.client_host(1)},
                        {probe.replica_host(0), probe.replica_host(1),
                         probe.replica_host(2)});
  plan.loss_burst(msec(1100), msec(1250), probe.replica_host(1),
                  probe.replica_host(2), 0.6);
  plan.crash_process(msec(1500), probe.replica_pid(2));
  plan.restart_process(msec(1900), probe.replica_pid(2));
  plan.slow_host(msec(2200), msec(2400), probe.replica_host(2), 2.5);
  return plan;
}

TEST(ChaosShrink, MinimizesInjectedBugToAtMostThreeActions) {
  const TrialConfig config = bug_trial();
  const net::FaultPlan failing = noisy_failing_plan(config);

  // Precondition: the noisy schedule really does trip the oracle.
  ASSERT_FALSE(run_trial(config, failing).pass());

  // Pin the shrink to the exactly-once violation: without a predicate the
  // minimizer may happily morph the failure into a different one (e.g.
  // retime the partition past the expulsion threshold and fail liveness).
  const auto dedup_violated = [](const TrialResult& r) {
    return !check_exactly_once(r.observation).pass();
  };
  const ShrinkResult shrunk = shrink_schedule(config, failing, dedup_violated);
  EXPECT_LE(shrunk.minimal.size(), 3u)
      << "minimal reproducer:\n" << shrunk.minimal.to_string();
  EXPECT_LT(shrunk.minimal.size(), failing.size());
  EXPECT_GT(shrunk.probes, 1);
  EXPECT_FALSE(shrunk.reproduction.pass());

  // The printed reproducer is self-contained: replaying it from scratch
  // still fails, and the violation is the planted exactly-once bug.
  const TrialResult replay = run_trial(config, shrunk.minimal);
  EXPECT_FALSE(replay.pass());
  EXPECT_FALSE(check_exactly_once(replay.observation).pass())
      << replay.verdict.to_string();

  // With the bug toggle off the very same minimal schedule is tolerated.
  TrialConfig fixed = config;
  fixed.inject_dedup_bug = false;
  EXPECT_TRUE(run_trial(fixed, shrunk.minimal).pass());
}

TEST(ChaosShrink, ParallelRoundsFindTheSameMinimalSchedule) {
  // A ddmin round on 8 workers evaluates every candidate as a parallel trial
  // and commits the lowest-indexed failure — the same candidate the serial
  // scan commits, so the minimal schedule must be identical byte for byte
  // (only the probe count may differ: parallel rounds finish candidates the
  // serial scan would have skipped past).
  const TrialConfig config = bug_trial();
  const net::FaultPlan failing = noisy_failing_plan(config);
  const auto dedup_violated = [](const TrialResult& r) {
    return !check_exactly_once(r.observation).pass();
  };

  const ShrinkResult serial = shrink_schedule(config, failing, dedup_violated);
  const ShrinkResult fleet = shrink_schedule(config, failing, dedup_violated, 8);

  EXPECT_EQ(fleet.minimal.to_string(), serial.minimal.to_string());
  // Exact probe counts: the serial scan stops at each round's first failing
  // candidate; the 8-wide round runs every candidate of the round.
  EXPECT_EQ(serial.probes, 8);
  EXPECT_EQ(fleet.probes, 10);
  EXPECT_FALSE(fleet.reproduction.pass());
}

}  // namespace
}  // namespace vdep::chaos
