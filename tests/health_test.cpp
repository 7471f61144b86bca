// The live health plane: phi-accrual failure detection, windowed telemetry,
// SLO tracking, the deterministic HealthEvent stream, and the closed loop
// into adaptation — units first, then full-scenario integration.
#include <gtest/gtest.h>

#include "adaptive/policy.hpp"
#include "harness/scenario.hpp"
#include "monitor/health/events.hpp"
#include "monitor/health/health_monitor.hpp"
#include "monitor/health/phi_accrual.hpp"
#include "monitor/health/slo.hpp"
#include "monitor/health/window.hpp"
#include "shard/cluster.hpp"

namespace vdep::monitor::health {
namespace {

// --- phi accrual ---------------------------------------------------------------

TEST(PhiAccrual, SuspectsAfterSilenceAndRecovers) {
  PhiAccrualDetector d;
  SimTime t = kTimeZero;
  for (int i = 0; i < 50; ++i) {
    t += msec(20);
    d.heartbeat(t);
  }
  // On-schedule: low suspicion one interval after the last heartbeat.
  EXPECT_LT(d.phi(t + msec(20)), 1.0);
  // A long silence crosses the suspect threshold decisively.
  EXPECT_GT(d.phi(t + msec(200)), 8.0);
  // A resumed heartbeat collapses suspicion immediately.
  t += msec(200);
  d.heartbeat(t);
  EXPECT_LT(d.phi(t + msec(10)), 1.0);
}

TEST(PhiAccrual, BootstrapBeforeMinSamples) {
  PhiAccrualDetector d;
  EXPECT_DOUBLE_EQ(d.phi(msec(100)), 0.0);  // never started: no opinion
  d.heartbeat(msec(100));
  // Below the minimum sample count the detector falls back to the bootstrap interval, so
  // it is already useful: quiet on schedule, loud after a long silence.
  EXPECT_DOUBLE_EQ(d.mean_interval_us(), to_usec(PhiAccrualDetector::kBootstrapInterval));
  EXPECT_LT(d.phi(msec(120)), 1.0);
  EXPECT_GT(d.phi(msec(400)), 8.0);
}

TEST(PhiAccrual, OutlierIntervalClamped) {
  PhiAccrualDetector d;
  SimTime t = kTimeZero;
  for (int i = 0; i < 50; ++i) {
    t += msec(20);
    d.heartbeat(t);
  }
  // One 500 ms outage-polluted gap is clamped to 5 x mean (the max-interval factor),
  // so the window mean cannot be dragged far from the true cadence.
  t += msec(500);
  d.heartbeat(t);
  EXPECT_LT(d.mean_interval_us(), 25'000.0);
}

// --- windowed telemetry --------------------------------------------------------

TEST(TimeSeriesWindows, DeltasRatesAndRollingPercentiles) {
  MetricsRegistry reg;
  TimeSeries series(8);
  SimTime t = kTimeZero;
  for (int w = 1; w <= 5; ++w) {
    reg.add("ops", 10);
    for (int i = 0; i < 10; ++i) reg.observe("lat", 100.0 * w);
    t += msec(100);
    series.cut(reg, t);
  }

  EXPECT_EQ(series.windows_cut(), 5u);
  EXPECT_EQ(series.window(0).deltas.counters.at("ops"), 10u);
  EXPECT_EQ(series.total("ops", 2), 20u);
  EXPECT_EQ(series.observations("lat", 3), 30u);
  // 40 ops across the last 4 windows' 400 ms span.
  EXPECT_NEAR(series.rate("ops", 4), 100.0, 1e-9);
  // Newest window is a point mass at 500.
  ASSERT_TRUE(series.percentile("lat", 50, 1).has_value());
  EXPECT_NEAR(*series.percentile("lat", 50, 1), 500.0, 500.0 * 0.05);
  // Unknown names are empty, not errors.
  EXPECT_EQ(series.total("missing", 4), 0u);
  EXPECT_FALSE(series.percentile("missing", 99, 4).has_value());
}

TEST(TimeSeriesWindows, RingWrapKeepsNewest) {
  MetricsRegistry reg;
  TimeSeries series(4);
  SimTime t = kTimeZero;
  for (int w = 0; w < 6; ++w) {
    reg.add("ops", static_cast<std::uint64_t>(w + 1));
    t += msec(50);
    series.cut(reg, t);
  }
  EXPECT_EQ(series.windows_cut(), 6u);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.window(0).index, 5u);  // newest
  EXPECT_EQ(series.window(3).index, 2u);  // oldest retained
  // Totals aggregate only what the ring still holds: windows 3..6 deltas.
  EXPECT_EQ(series.total("ops", 99), 3u + 4u + 5u + 6u);
}

// --- SLO tracking --------------------------------------------------------------

TEST(SloTracker, VacuousBelowMinRequests) {
  MetricsRegistry reg;
  TimeSeries series(8);
  series.cut(reg, msec(100));

  SloSpec spec;
  spec.name = "svc";
  spec.latency_metric = "lat";
  spec.request_counter = "req";
  spec.min_requests = 5;
  SloTracker tracker(spec);

  const SloStatus idle = tracker.evaluate(series);
  EXPECT_TRUE(idle.met());
  EXPECT_EQ(idle.requests, 0u);
  EXPECT_DOUBLE_EQ(idle.burn_rate, 0.0);
}

TEST(SloTracker, AvailabilityBurnAndLatencyBreach) {
  MetricsRegistry reg;
  TimeSeries series(8);

  SloSpec spec;
  spec.name = "svc";
  spec.latency_metric = "lat";
  spec.request_counter = "req";
  spec.failure_counter = "fail";
  spec.latency_p99_target_us = 1000.0;
  spec.availability_target = 0.9;
  spec.window = 1;
  SloTracker tracker(spec);

  // Healthy window: all requests fast, none failed.
  reg.add("req", 100);
  for (int i = 0; i < 100; ++i) reg.observe("lat", 500.0);
  series.cut(reg, msec(100));
  const SloStatus healthy = tracker.evaluate(series);
  EXPECT_TRUE(healthy.met());
  EXPECT_DOUBLE_EQ(healthy.availability, 1.0);
  EXPECT_DOUBLE_EQ(healthy.burn_rate, 0.0);

  // Availability breach: 20 of 100 fail -> 0.8 < 0.9 target, burn 2x budget.
  reg.add("req", 80);
  reg.add("fail", 20);
  series.cut(reg, msec(200));
  const SloStatus burning = tracker.evaluate(series);
  EXPECT_FALSE(burning.availability_met);
  EXPECT_DOUBLE_EQ(burning.availability, 0.8);
  EXPECT_NEAR(burning.burn_rate, 2.0, 1e-9);

  // Latency breach: successful but slow.
  reg.add("req", 100);
  for (int i = 0; i < 100; ++i) reg.observe("lat", 5000.0);
  series.cut(reg, msec(300));
  const SloStatus slow = tracker.evaluate(series);
  EXPECT_FALSE(slow.latency_met);
  EXPECT_TRUE(slow.availability_met);
  EXPECT_GT(slow.p99_us, 1000.0);
}

// --- event stream --------------------------------------------------------------

TEST(HealthEventStream, SequenceIdsAndCanonicalRender) {
  HealthEventStream stream;
  int fired = 0;
  stream.set_on_event([&](const HealthEvent& e) { fired += e.seq == 0 ? 1 : 10; });
  stream.emit(msec(1), HealthEventKind::kLinkSuspect, "link:1->2", 1, 2, 9.5, 8.0);
  stream.emit(msec(2), HealthEventKind::kLinkClear, "link:1->2", 1, 2, 0.25, 1.0);
  ASSERT_EQ(stream.events().size(), 2u);
  EXPECT_EQ(stream.events()[0].seq, 0u);
  EXPECT_EQ(stream.events()[1].seq, 1u);
  EXPECT_EQ(stream.next_seq(), 2u);
  EXPECT_EQ(fired, 11);  // live feed saw both, in order

  // Canonical bytes: integer-ns timestamps, fixed precision — the CI
  // determinism gate diffs exactly this rendering.
  EXPECT_EQ(render_text(stream.events()),
            "#000000 t=1000000ns link_suspect link:1->2 value=9.500 threshold=8.000\n"
            "#000001 t=2000000ns link_clear link:1->2 value=0.250 threshold=1.000\n");
}

// --- health-threshold adaptation policy ----------------------------------------

TEST(HealthThresholdPolicy, DegradesImmediatelyRecoversAfterDwell) {
  adaptive::HealthThresholdPolicy policy;
  adaptive::Signals s;
  s.now = msec(100);
  EXPECT_FALSE(policy.evaluate(s).has_value());  // healthy, already normal

  s.suspected_replicas = 1;  // degrade is immediate
  auto degraded = policy.evaluate(s);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(*degraded, replication::ReplicationStyle::kActive);

  s.suspected_replicas = 0;  // clearing within the dwell: hold degraded
  s.now = msec(200);
  EXPECT_FALSE(policy.evaluate(s).has_value());

  s.now = msec(700);  // dwell passed: recover to the normal style
  auto recovered = policy.evaluate(s);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, replication::ReplicationStyle::kWarmPassive);

  s.max_phi = 99.0;  // phi threshold degrades too
  s.now = msec(800);
  auto again = policy.evaluate(s);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, replication::ReplicationStyle::kActive);
}

// --- scenario integration ------------------------------------------------------

harness::ScenarioConfig health_scenario_config(std::uint64_t seed) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.auto_recover = true;
  config.health = true;
  return config;
}

bool has_event(const std::vector<HealthEvent>& events, HealthEventKind kind,
               std::uint64_t id_a) {
  for (const auto& e : events) {
    if (e.kind == kind && e.id_a == id_a) return true;
  }
  return false;
}

TEST(HealthScenario, CrashSuspectedInstantlyAndClearedOnRejoin) {
  harness::Scenario scenario(health_scenario_config(11));
  scenario.fault_plan().crash_process(msec(800), scenario.replica_pid(1));
  scenario.fault_plan().restart_process(msec(1200), scenario.replica_pid(1));

  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = 1800;
  scenario.run_closed_loop(cycle);
  scenario.drain();

  const auto& events = scenario.health().events();
  const std::uint64_t pid = scenario.replica_pid(1).value();
  EXPECT_TRUE(has_event(events, HealthEventKind::kReplicaSuspect, pid));
  EXPECT_TRUE(has_event(events, HealthEventKind::kReplicaClear, pid));
  // The co-located daemon observes the crash directly: the suspect event is
  // emitted at the crash instant, not after a timeout.
  for (const auto& e : events) {
    if (e.kind == HealthEventKind::kReplicaSuspect && e.id_a == pid) {
      EXPECT_EQ(e.at, msec(800));
    }
  }
  EXPECT_EQ(scenario.health().suspected_replicas(), 0u);  // recovered
  EXPECT_GT(scenario.metrics().counter("service.requests"), 0u);
}

TEST(HealthScenario, PartitionRaisesLinkSuspicionThenClears) {
  harness::Scenario scenario(health_scenario_config(12));
  const NodeId isolated = scenario.replica_host(2);
  scenario.fault_plan().partition_window(
      msec(800), msec(1100), {isolated},
      {scenario.replica_host(0), scenario.replica_host(1)});

  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = 1800;
  scenario.run_closed_loop(cycle);
  scenario.drain();

  const auto& events = scenario.health().events();
  SimTime first_suspect = kTimeZero;
  bool cleared = false;
  for (const auto& e : events) {
    if (e.kind == HealthEventKind::kLinkSuspect && e.id_a == isolated.value() &&
        first_suspect == kTimeZero) {
      first_suspect = e.at;
    }
    if (e.kind == HealthEventKind::kLinkClear && e.id_a == isolated.value()) {
      cleared = true;
    }
  }
  ASSERT_GT(first_suspect, kTimeZero) << "partition never suspected";
  // Detection latency: well inside the partition window (the classic
  // heartbeat detector would need 500 ms of silence; phi crosses in ~50 ms).
  EXPECT_LT(first_suspect, msec(800) + msec(100));
  EXPECT_TRUE(cleared);
  EXPECT_EQ(scenario.health().suspected_links(), 0u);
}

TEST(HealthScenario, FaultFreeRunIsSilent) {
  harness::Scenario scenario(health_scenario_config(13));
  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = 1200;
  scenario.run_closed_loop(cycle);
  scenario.drain();

  auto& health = scenario.health();
  EXPECT_GT(health.series().windows_cut(), 0u);
  for (const auto& e : health.events()) {
    EXPECT_TRUE(e.kind == HealthEventKind::kReplicaClear ||
                e.kind == HealthEventKind::kLinkClear ||
                e.kind == HealthEventKind::kSloLatencyRecover ||
                e.kind == HealthEventKind::kSloAvailabilityRecover ||
                e.kind == HealthEventKind::kQueueDepthClear)
        << "false alarm: " << render_text({e});
  }
  for (const auto& [name, slo] : health.slo_status()) {
    EXPECT_TRUE(slo.met()) << name;
  }
}

TEST(HealthScenario, EventStreamByteIdenticalAcrossRuns) {
  auto run_once = [] {
    harness::Scenario scenario(health_scenario_config(14));
    scenario.fault_plan().crash_process(msec(800), scenario.replica_pid(0));
    scenario.fault_plan().restart_process(msec(1200), scenario.replica_pid(0));
    scenario.fault_plan().partition_window(
        msec(1600), msec(1900), {scenario.replica_host(2)},
        {scenario.replica_host(0), scenario.replica_host(1)});
    harness::Scenario::CycleConfig cycle;
    cycle.requests_per_client = 2200;
    scenario.run_closed_loop(cycle);
    scenario.drain();
    return render_text(scenario.health().events());
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(HealthScenario, AdaptationReactsToSuspicion) {
  harness::ScenarioConfig config = health_scenario_config(15);
  config.health_adaptation = true;
  harness::Scenario scenario(config);
  scenario.fault_plan().partition_window(
      msec(800), msec(1200), {scenario.replica_host(2)},
      {scenario.replica_host(0), scenario.replica_host(1)});

  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = 2200;
  scenario.run_closed_loop(cycle);
  scenario.drain();

  // The health-threshold policy saw the link suspicion and initiated a
  // switch to the degraded (active) style on at least one replica.
  bool switched = false;
  for (int r = 0; r < config.replicas; ++r) {
    for (const auto& record : scenario.replicator(r).switch_history()) {
      if (record.to == replication::ReplicationStyle::kActive) switched = true;
    }
  }
  EXPECT_TRUE(switched);
}

// --- sharded per-shard SLOs ----------------------------------------------------

TEST(HealthShard, PerShardSloTrackersCoverEveryShard) {
  shard::ShardedClusterConfig config;
  config.seed = 21;
  config.shards = 4;
  config.health = true;
  shard::ShardedCluster cluster(config);

  shard::ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = 60;
  const auto result = cluster.run_workload(wc);
  cluster.drain(msec(500));
  EXPECT_TRUE(result.all_done);

  auto& health = cluster.health();
  EXPECT_EQ(health.slo_status().size(), 4u);
  std::uint64_t shard_ops = 0;
  for (const auto& entry : cluster.initial_map().entries()) {
    const std::string prefix = "shard." + std::to_string(entry.shard);
    EXPECT_TRUE(health.slo_status().contains(prefix)) << prefix;
    shard_ops += cluster.metrics().counter(prefix + ".ops");
  }
  EXPECT_EQ(shard_ops, result.completed);
  // Healthy cluster: no SLO breach events.
  for (const auto& e : health.events()) {
    EXPECT_NE(e.kind, HealthEventKind::kSloAvailabilityBreach)
        << render_text({e});
  }
}

}  // namespace
}  // namespace vdep::monitor::health
