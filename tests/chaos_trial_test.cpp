// Chaos trials: smoke coverage, (seed, config) determinism, and proof that
// the oracles actually catch a real safety violation (the deliberately
// injected reply-dedup bug).
#include <gtest/gtest.h>

#include <set>

#include "chaos/campaign.hpp"
#include "harness/scenario.hpp"

namespace vdep::chaos {
namespace {

TrialConfig small_trial(std::uint64_t seed) {
  TrialConfig config;
  config.seed = seed;
  config.clients = 2;
  config.replicas = 3;
  config.ops_per_client = 60;
  return config;
}

// A schedule that crashes the warm-passive primary mid-workload and brings
// it back: the restarted replica must rejoin as the most junior member and
// catch up by state transfer while the promoted backup keeps serving.
net::FaultPlan primary_crash_plan(const TrialConfig& config) {
  harness::ScenarioConfig sc;
  sc.clients = config.clients;
  sc.replicas = config.replicas;
  sc.max_replicas = config.replicas;
  sc.style = config.style;
  harness::Scenario probe(sc);  // same deterministic pid layout as the trial
  net::FaultPlan plan;
  plan.crash_process(msec(500), probe.replica_pid(0));
  plan.restart_process(msec(900), probe.replica_pid(0));
  return plan;
}

// A schedule that forces a client retry of an already-executed request: the
// partition cuts clients off from the replicas after their in-flight request
// was forwarded, so it executes but the reply never arrives; the client
// retransmits, and after the heal both copies are delivered. Exactly-once
// then hinges entirely on the reply cache.
net::FaultPlan reply_loss_partition_plan(const TrialConfig& config) {
  harness::ScenarioConfig sc;
  sc.clients = config.clients;
  sc.replicas = config.replicas;
  sc.max_replicas = config.replicas;
  sc.style = config.style;
  harness::Scenario probe(sc);
  std::set<NodeId> client_hosts, replica_hosts;
  for (int c = 0; c < config.clients; ++c) client_hosts.insert(NodeId{static_cast<std::uint64_t>(c)});
  for (int r = 0; r < config.replicas; ++r) replica_hosts.insert(probe.replica_host(r));
  net::FaultPlan plan;
  plan.partition_window(msec(500), msec(950), client_hosts, replica_hosts);
  return plan;
}

TEST(ChaosTrial, GeneratedScheduleSmokeTrialPasses) {
  const TrialResult result = run_trial(small_trial(11));
  EXPECT_TRUE(result.pass()) << result.verdict.to_string()
                             << "\nschedule:\n" << result.plan.to_string();
  EXPECT_FALSE(result.plan.empty());
  EXPECT_EQ(result.completed_ops, 120u);
  EXPECT_TRUE(result.observation.all_clients_done);
}

TEST(ChaosTrial, SameSeedSameConfigIsByteIdentical) {
  TrialConfig config = small_trial(23);
  config.record_spans = true;
  const TrialResult a = run_trial(config);
  const TrialResult b = run_trial(config);
  ASSERT_FALSE(a.flight_recording.empty());
  EXPECT_EQ(a.flight_recording, b.flight_recording);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.finished_at, b.finished_at);

  TrialConfig other = config;
  other.seed = 24;
  const TrialResult c = run_trial(other);
  EXPECT_NE(a.flight_recording, c.flight_recording);
}

TEST(ChaosTrial, RecordedSpansMakeDeterministicFlightRecordings) {
  TrialConfig config = small_trial(23);
  config.record_spans = true;
  const TrialResult a = run_trial(config, primary_crash_plan(config));
  EXPECT_GT(a.spans_recorded, 0u);
  EXPECT_EQ(a.spans_dropped, 0u);
  ASSERT_FALSE(a.flight_recording.empty());
  EXPECT_NE(a.flight_recording.find("client.request"), std::string::npos);
  EXPECT_NE(a.flight_recording.find("rep.promote"), std::string::npos);

  // Re-running the same (config, plan) reproduces the recording byte for
  // byte — this is what gives failing campaign trials citable post-mortems.
  const TrialResult b = run_trial(config, primary_crash_plan(config));
  EXPECT_EQ(a.spans_recorded, b.spans_recorded);
  EXPECT_EQ(a.flight_recording, b.flight_recording);

  // And recording spans does not change the simulated outcome.
  TrialConfig plain = config;
  plain.record_spans = false;
  const TrialResult c = run_trial(plain, primary_crash_plan(plain));
  EXPECT_EQ(c.spans_recorded, 0u);
  EXPECT_TRUE(c.flight_recording.empty());
  EXPECT_EQ(a.completed_ops, c.completed_ops);
  EXPECT_EQ(a.finished_at, c.finished_at);
}

TEST(ChaosTrial, HealthyStackSurvivesPrimaryCrash) {
  const TrialConfig config = small_trial(5);
  const TrialResult result = run_trial(config, primary_crash_plan(config));
  EXPECT_TRUE(result.pass()) << result.verdict.to_string();
  EXPECT_EQ(result.completed_ops, 120u);
}

TEST(ChaosTrial, HealthyStackSurvivesReplyLossPartition) {
  TrialConfig config = small_trial(5);
  config.append_ratio = 1.0;  // every retried op would show a duplicate
  const TrialResult result = run_trial(config, reply_loss_partition_plan(config));
  EXPECT_TRUE(result.pass()) << result.verdict.to_string();
  EXPECT_EQ(result.completed_ops, 120u);
}

TEST(ChaosTrial, InjectedDedupBugIsCaughtByExactlyOnceOracle) {
  TrialConfig config = small_trial(5);
  config.append_ratio = 1.0;
  config.inject_dedup_bug = true;
  const TrialResult result = run_trial(config, reply_loss_partition_plan(config));
  EXPECT_FALSE(result.pass())
      << "reply-dedup disabled + retried request must double-execute";
  EXPECT_FALSE(check_exactly_once(result.observation).pass())
      << result.verdict.to_string();
}

TEST(ChaosTrial, CampaignSweepCoversTheDesignSpace) {
  CampaignConfig config;
  config.seed = 3;
  config.trials = 10;  // one full style cycle at both replica counts
  config.base = small_trial(0);
  config.base.ops_per_client = 40;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.trials, 10);
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "trial " << failure.trial_index << " style "
                  << replication::style_code(failure.config.style) << ":\n"
                  << failure.plan.to_string();
  }
  EXPECT_TRUE(result.all_passed());
  // Every style ran at least once and the metrics kept score.
  EXPECT_EQ(result.metrics.counter("chaos.trials"), 10u);
  for (const char* code : {"A", "P", "C", "S", "H"}) {
    EXPECT_GE(result.metrics.counter(std::string("chaos.pass.") + code), 1u)
        << code;
  }
  EXPECT_EQ(result.recovery_series.points().size(), 10u);
}

}  // namespace
}  // namespace vdep::chaos
