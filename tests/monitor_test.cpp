#include <gtest/gtest.h>

#include "gcs/endpoint.hpp"
#include "harness/fabric.hpp"
#include "monitor/metrics.hpp"
#include "monitor/replicated_state.hpp"
#include "monitor/threshold_watcher.hpp"

namespace vdep::monitor {
namespace {

TEST(MetricsRegistry, CountersGaugesDistributions) {
  MetricsRegistry m;
  m.add("requests");
  m.add("requests", 4);
  EXPECT_EQ(m.counter("requests"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);

  m.set_gauge("load", 0.7);
  ASSERT_TRUE(m.gauge("load").has_value());
  EXPECT_DOUBLE_EQ(*m.gauge("load"), 0.7);
  EXPECT_FALSE(m.gauge("missing").has_value());

  m.observe("latency", 10);
  m.observe("latency", 20);
  const RunningStats* d = m.distribution("latency");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->mean(), 15.0);
  EXPECT_EQ(m.distribution("missing"), nullptr);

  m.reset();
  EXPECT_EQ(m.counter("requests"), 0u);
}

TEST(MetricsRegistry, PercentilesFromLogHistogram) {
  MetricsRegistry m;
  for (int i = 1; i <= 1000; ++i) m.observe("latency", i);
  ASSERT_NE(m.histogram("latency"), nullptr);
  EXPECT_EQ(m.histogram("latency")->count(), 1000u);
  ASSERT_TRUE(m.percentile("latency", 50).has_value());
  EXPECT_NEAR(*m.percentile("latency", 50), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(*m.percentile("latency", 99), 990.0, 990.0 * 0.05);
  EXPECT_DOUBLE_EQ(*m.percentile("latency", 100), 1000.0);
  EXPECT_FALSE(m.percentile("missing", 50).has_value());
  EXPECT_EQ(m.histogram("missing"), nullptr);

  // distributions() exposes both views under one name.
  const auto& all = m.distributions();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_DOUBLE_EQ(all.at("latency").stats.max(), 1000.0);
  EXPECT_DOUBLE_EQ(all.at("latency").histogram.max(), 1000.0);
}

TEST(ThresholdWatcher, HysteresisAndDwell) {
  ThresholdWatcher w(100, 200, msec(50));
  // Starts low; values between the thresholds never transition.
  EXPECT_FALSE(w.update(msec(0), 150).has_value());
  auto up = w.update(msec(1), 250);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(*up, ThresholdWatcher::State::kHigh);
  // Falling below low within the dwell does nothing.
  EXPECT_FALSE(w.update(msec(20), 50).has_value());
  // After the dwell it transitions down.
  auto down = w.update(msec(60), 50);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(*down, ThresholdWatcher::State::kLow);
}

TEST(ThresholdWatcher, NoThrashingAtBoundary) {
  ThresholdWatcher w(100, 200, msec(10));
  int transitions = 0;
  for (int t = 0; t < 1000; t += 5) {
    // Noise oscillating inside the hysteresis band.
    if (w.update(msec(t), 150 + (t % 2 ? 30 : -30))) ++transitions;
  }
  EXPECT_EQ(transitions, 0);
}

// --- replicated system-state object over a real GCS world ---------------------

struct StateWorld {
  // Daemons on hosts 0..2 with PIDs 100+host.
  gcs::Daemon& daemon(std::uint64_t host) { return fabric.daemon_on(NodeId{host}); }

  harness::Fabric fabric{{.seed = 3, .server_hosts = 3}};
  sim::Kernel& kernel = fabric.kernel();
  const std::vector<NodeId>& hosts = fabric.server_hosts();
};

TEST(ReplicatedStateObject, MembersConvergeOnIdenticalState) {
  StateWorld w;
  sim::Process p1(w.kernel, ProcessId{10}, w.hosts[1], "p1");
  sim::Process p2(w.kernel, ProcessId{20}, w.hosts[2], "p2");

  ReplicatedStateObject s1(w.daemon(1), p1, GroupId{50},
                           [] { return StateEntry{{}, kTimeZero, 0.25, 100.0, {}}; });
  ReplicatedStateObject s2(w.daemon(2), p2, GroupId{50},
                           [] { return StateEntry{{}, kTimeZero, 0.75, 300.0, {}}; });
  s1.start();
  s2.start();
  w.kernel.run_until(sec(1));

  // Both hold entries for both reporters, with the same values.
  ASSERT_EQ(s1.entries().size(), 2u);
  ASSERT_EQ(s2.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(s1.entries().at(ProcessId{10}).cpu_load, 0.25);
  EXPECT_DOUBLE_EQ(s1.entries().at(ProcessId{20}).cpu_load, 0.75);
  EXPECT_DOUBLE_EQ(s2.entries().at(ProcessId{10}).cpu_load, 0.25);

  // Deterministic aggregates agree — the paper's "decisions ... based on data
  // that is already available and agreed upon".
  EXPECT_DOUBLE_EQ(s1.aggregate_request_rate(), s2.aggregate_request_rate());
  EXPECT_DOUBLE_EQ(s1.aggregate_request_rate(), 200.0);
  EXPECT_DOUBLE_EQ(s1.max_cpu_load(), 0.75);
}

TEST(ReplicatedStateObject, DepartedMemberDropsFromState) {
  StateWorld w;
  sim::Process p1(w.kernel, ProcessId{10}, w.hosts[1], "p1");
  sim::Process p2(w.kernel, ProcessId{20}, w.hosts[2], "p2");
  ReplicatedStateObject s1(w.daemon(1), p1, GroupId{50},
                           [] { return StateEntry{{}, kTimeZero, 0.1, 10.0, {}}; });
  ReplicatedStateObject s2(w.daemon(2), p2, GroupId{50},
                           [] { return StateEntry{{}, kTimeZero, 0.9, 90.0, {}}; });
  s1.start();
  s2.start();
  w.kernel.run_until(sec(1));
  ASSERT_EQ(s1.entries().size(), 2u);

  p2.crash();
  w.kernel.run_until(sec(2));
  EXPECT_EQ(s1.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(s1.max_cpu_load(), 0.1);
}

TEST(StateEntryCodec, RoundTripWithExtras) {
  StateEntry e;
  e.reporter = ProcessId{7};
  e.reported_at = msec(123);
  e.cpu_load = 0.5;
  e.request_rate = 42.5;
  e.extra["queue_depth"] = 17.0;
  StateEntry out = StateEntry::decode(e.encode());
  EXPECT_EQ(out.reporter, ProcessId{7});
  EXPECT_EQ(out.reported_at, msec(123));
  EXPECT_DOUBLE_EQ(out.cpu_load, 0.5);
  EXPECT_DOUBLE_EQ(out.request_rate, 42.5);
  EXPECT_DOUBLE_EQ(out.extra.at("queue_depth"), 17.0);
}

}  // namespace
}  // namespace vdep::monitor
