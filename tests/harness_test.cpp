// Harness-layer units: report rendering, rate plans, open/closed-loop
// drivers, and the design-space profiler plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"

namespace vdep::harness {
namespace {

TEST(Report, TableAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22.5  |"), std::string::npos);
  // Frame rules above header, below header, below body (count rule *lines*).
  std::size_t rules = 0;
  for (std::size_t pos = 0; pos < out.size();) {
    if (out[pos] == '+') ++rules;
    pos = out.find('\n', pos);
    if (pos == std::string::npos) break;
    ++pos;
  }
  EXPECT_EQ(rules, 3u);
}

TEST(Report, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1000.0), "1000.0");
  EXPECT_EQ(Table::num(0.5, 3), "0.500");
}

TEST(Report, BarsScaleToMax) {
  const std::string out = render_bars("title", "us",
                                      {{"a", 50.0, 0.0}, {"b", 100.0, 10.0}}, 10);
  EXPECT_NE(out.find("title"), std::string::npos);
  // b occupies ~10/11 of the width (value+error scales the axis), a about half.
  EXPECT_NE(out.find("+/- 10.0"), std::string::npos);
  EXPECT_NE(out.find("50.0 us"), std::string::npos);
}

TEST(Report, SeriesRendersResampledRows) {
  sim::TimeSeries series("x");
  series.record(msec(100), 5.0);
  series.record(msec(600), 10.0);
  const std::string out =
      render_series("t", series, kTimeZero, sec(1), msec(500), 10.0, 10);
  // Three rows: 0s, 0.5s, 1.0s.
  EXPECT_NE(out.find("0.00s"), std::string::npos);
  EXPECT_NE(out.find("0.50s"), std::string::npos);
  EXPECT_NE(out.find("1.00s"), std::string::npos);
  EXPECT_NE(out.find("10.0"), std::string::npos);
}

TEST(Report, WriteCsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vdep_test.csv";
  ASSERT_TRUE(write_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[128];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "a,b\n1,2\n3,4\n");
  EXPECT_FALSE(write_csv("/nonexistent-dir/x.csv", {"a"}, {}));
}

TEST(RatePlan, PiecewiseLookup) {
  std::vector<app::RatePlan::Segment> segments{{kTimeZero, 100.0}, {sec(2), 500.0}};
  app::RatePlan plan(segments);
  EXPECT_DOUBLE_EQ(plan.rate_at(sec(1)), 100.0);
  EXPECT_DOUBLE_EQ(plan.rate_at(sec(2)), 500.0);
  EXPECT_DOUBLE_EQ(plan.rate_at(sec(9)), 500.0);
  EXPECT_EQ(plan.end_of_last_segment(), sec(2));
}

TEST(RatePlan, ConstantAndBurstFactories) {
  EXPECT_DOUBLE_EQ(app::RatePlan::constant(42).rate_at(sec(100)), 42.0);
  const auto burst = app::RatePlan::fig6_burst(100, 900, sec(1), 4);
  EXPECT_DOUBLE_EQ(burst.rate_at(msec(500)), 100.0);
  EXPECT_DOUBLE_EQ(burst.rate_at(msec(1500)), 900.0);
  EXPECT_DOUBLE_EQ(burst.rate_at(msec(2500)), 100.0);
  EXPECT_DOUBLE_EQ(burst.rate_at(msec(3500)), 900.0);
}

TEST(Experiment, RunDesignPointProducesSaneMetrics) {
  SweepConfig sweep;
  sweep.requests_per_client = 300;
  sweep.warmup_requests = 30;
  const auto p =
      run_design_point(sweep, replication::ReplicationStyle::kActive, 2, 1);
  EXPECT_EQ(p.config.replicas, 2);
  EXPECT_EQ(p.clients, 1);
  EXPECT_EQ(p.faults_tolerated, 1);
  EXPECT_GT(p.latency_us, 1000.0);
  EXPECT_GT(p.bandwidth_mbps, 0.1);
  EXPECT_GT(p.throughput_rps, 100.0);
  EXPECT_GT(p.jitter_us, 0.0);
}

TEST(Experiment, ProfileGridCoversAllCombinations) {
  SweepConfig sweep;
  sweep.requests_per_client = 120;
  sweep.warmup_requests = 20;
  sweep.styles = {replication::ReplicationStyle::kActive};
  sweep.replica_counts = {1, 2};
  sweep.client_counts = {1, 2};
  int observed = 0;
  const auto map = harness::profile_design_space(
      sweep, [&observed](const knobs::DesignPoint&) { ++observed; });
  EXPECT_EQ(observed, 4);
  EXPECT_EQ(map.points().size(), 4u);
  EXPECT_TRUE(map.find({replication::ReplicationStyle::kActive, 2}, 2).has_value());
}

TEST(Scenario, KnobControllerInterfaceRoundTrips) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  // Boot the replicas.
  scenario.kernel().run_until(msec(100));

  EXPECT_EQ(scenario.group().replica_count(), 2);
  EXPECT_EQ(scenario.group().style(), replication::ReplicationStyle::kWarmPassive);
  EXPECT_EQ(scenario.group().checkpoint_interval(), calib::kDefaultCheckpointInterval);

  scenario.group().set_checkpoint_interval(msec(80));
  EXPECT_EQ(scenario.group().checkpoint_interval(), msec(80));
  EXPECT_EQ(scenario.replicator(0).checkpoint_interval(), msec(80));

  scenario.group().set_replica_count(3);
  scenario.kernel().run_until(msec(600));
  EXPECT_EQ(scenario.group().replica_count(), 3);

  scenario.group().set_style(replication::ReplicationStyle::kActive);
  scenario.kernel().run_until(msec(1200));
  EXPECT_EQ(scenario.group().style(), replication::ReplicationStyle::kActive);
}

// A typed setting applied to the live group reaches every replica, and
// out-of-range values never reach the group.
TEST(Scenario, AppliesTypedSettingToLiveGroup) {
  ScenarioConfig config;
  config.replicas = 2;
  config.style = replication::ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.kernel().run_until(msec(100));

  auto& group = scenario.group();
  group.apply({std::uint32_t{4}});
  EXPECT_EQ(group.read(knobs::KnobId::kCheckpointAnchorInterval),
            knobs::Setting{std::uint32_t{4}});
  EXPECT_EQ(scenario.replicator(0).checkpoint_anchor_interval(), 4u);
  EXPECT_EQ(scenario.replicator(1).checkpoint_anchor_interval(), 4u);
  EXPECT_THROW(group.apply({0}), std::invalid_argument);
  EXPECT_EQ(group.read(knobs::KnobId::kReplicas), knobs::Setting{2});
}

// Knob changes reach replicas that join later: a grown node starts with the
// group's current checkpoint cadence, on the first free replica host.
TEST(ReplicaGroup, GrownNodeStartsWithCurrentKnobs) {
  ScenarioConfig config;
  config.replicas = 2;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  auto& group = scenario.group();
  EXPECT_EQ(group.replica_count(), 0);  // nothing booted: configured style
  EXPECT_EQ(group.style(), replication::ReplicationStyle::kWarmPassive);

  scenario.kernel().run_until(msec(100));
  group.set_checkpoint_interval(msec(80));
  group.set_checkpoint_anchor_interval(4);
  group.set_replica_count(3);
  EXPECT_EQ(scenario.replica_host(2), NodeId{3});  // cli0, srv0, srv1, srv2
  EXPECT_EQ(scenario.replicator(2).checkpoint_interval(), msec(80));
  EXPECT_EQ(scenario.replicator(2).checkpoint_anchor_interval(), 4u);
}

// A manual recover rebuilds a crashed node, monitoring included, as a fresh
// incarnation that catches up by state transfer.
TEST(ReplicaGroup, RecoverRebuildsCrashedNode) {
  ScenarioConfig config;
  config.replicas = 2;
  config.enable_replicated_state = true;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(msec(400), scenario.replica_pid(1));
  scenario.kernel().post_at(msec(700), [&] { scenario.group().recover(1); });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  EXPECT_EQ(scenario.run_closed_loop(cycle).completed, 800u);
  scenario.drain();
  EXPECT_EQ(scenario.live_replicas(), 2);
  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0], digests[1]);
}

// A request nobody can serve fails once the coordinator's retries run out:
// the caller sees a system exception (CORBA's TRANSIENT) instead of waiting
// forever, and the ORB holds nothing for it.
TEST(Scenario, ExhaustedRetriesFailTheRequest) {
  ScenarioConfig config;
  config.replicas = 1;
  config.max_replicas = 1;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(msec(100), scenario.replica_pid(0));
  scenario.arm_faults();

  std::optional<orb::ReplyStatus> status;
  scenario.kernel().post_at(msec(300), [&] {
    scenario.client_orb(0).invoke(scenario.object_ref(), "process", Bytes(16),
                                  [&](orb::ReplyStatus s, Bytes) { status = s; });
  });
  scenario.kernel().run_until(sec(20));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, orb::ReplyStatus::kSystemException);
  EXPECT_EQ(scenario.client_orb(0).outstanding(), 0u);
}

// Cut off from the only replica for the rest of the run, requests fail once
// the retry budget is spent: the open-loop client counts none of them as
// completed or as a latency sample, and the closed-loop client moves on to
// its next request instead of aborting.
TEST(Scenario, GivenUpRequestsAreNotCompletions) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 1;
  config.max_replicas = 1;
  const auto cut_off = [](Scenario& scenario) {
    scenario.fault_plan().partition_window(sec(1), sec(60), {scenario.client_host(0)},
                                           {scenario.replica_host(0)});
  };
  {
    Scenario scenario(config);
    cut_off(scenario);
    Scenario::OpenLoopConfig open;
    open.plan = app::RatePlan::constant(20);
    open.duration = sec(12);
    const auto result = scenario.run_open_loop(open);
    EXPECT_GT(result.totals.completed, 0u);
    EXPECT_LT(result.totals.completed, 30u);  // ~16 arrive before the cut
    EXPECT_LT(result.totals.max_latency_us, 1e6);
  }
  {
    Scenario scenario(config);
    cut_off(scenario);
    Scenario::CycleConfig cycle;
    cycle.warmup_requests = 0;
    cycle.requests_per_client = 2000;
    cycle.max_duration = sec(30);
    const auto result = scenario.run_closed_loop(cycle);
    EXPECT_GT(result.completed, 0u);
    EXPECT_LT(result.completed, 2000u);
    EXPECT_LT(result.max_latency_us, 1e6);
    // Two requests given up after 25 retries each, and a third in flight.
    EXPECT_GT(result.retransmissions, 50u);
  }
}

TEST(Scenario, OpenLoopSuppressionUnderOverload) {
  // Offered far beyond capacity: the client caps in-flight work and sheds
  // the excess instead of melting down.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 1;
  config.max_replicas = 1;
  config.style = replication::ReplicationStyle::kActive;
  Scenario scenario(config);
  Scenario::OpenLoopConfig open;
  open.plan = app::RatePlan::constant(5000);  // >> ~800/s capacity of 1 closed pipe
  open.duration = sec(2);
  const auto result = scenario.run_open_loop(open);
  EXPECT_GT(result.totals.completed, 500u);
  EXPECT_LT(result.totals.completed, 9000u);
}

}  // namespace
}  // namespace vdep::harness
