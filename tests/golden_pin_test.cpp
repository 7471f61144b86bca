// Golden pins for the replica-group plumbing behind harness::Scenario and
// shard::ShardedCluster: two traced runs that exercise every group operation
// (boot, crash + auto-recover, growth by state transfer, shrink, checkpoint
// cadence changes, an online split) and hash what they leave behind — the
// canonical trace text and the live replicas' state digests. Any change to
// process naming, PID assignment, wiring order or event order moves a hash.
// Two more runs turn the live health plane on, so the HealthEvent stream is
// pinned too: where health starts during boot is part of the event order.
//
// Neither run switches style before a join, so the pins do not depend on
// which style a joiner starts in.
//
// CheckpointChainPaths pins the checkpoint-chain paths the runs above never
// reach (they run warm passive only: the scenario runs with every checkpoint
// a full anchor, the sharded runs with the shards' K = 8 delta chains): cold
// passive retention with delta chains, a cold launch and a delta state
// transfer to a recovered joiner; a warm-to-active switch with deltas in
// flight; and hybrid observers. It also hashes the replicators' summed
// checkpoint counters.
//
// A last pin covers the chaos trials: two small campaigns (health-on
// single-group trials, and sharded trials with online splits) rendered
// without process names, so what it pins is the observable outcome of every
// trial — schedule, verdict, per-op history and final replica/shard state.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "harness/scenario.hpp"
#include "monitor/health/events.hpp"
#include "obs/export.hpp"
#include "shard/cluster.hpp"
#include "util/bytes.hpp"
#include "written.hpp"

namespace vdep {
namespace {

std::uint64_t fnv1a_text(const std::string& text) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::uint64_t fnv1a_digests(const std::vector<std::uint64_t>& digests) {
  return fnv1a(testing::written<ByteWriter>([&digests](auto& w) {
    for (std::uint64_t d : digests) w.u64(d);
  }));
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
  EXPECT_EQ(fnv1a_text(obs::render_text(scenario.kernel().tracer())), 0x99d16e4c7cde2d0dull)
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
  EXPECT_EQ(fnv1a_text(obs::render_text(cluster.kernel().tracer())), 0xf03170f6c1981d22ull)
      << std::hex << fnv1a_text(obs::render_text(cluster.kernel().tracer()));
}

TEST(GoldenPin, ScenarioHealthPlane) {
  harness::ScenarioConfig config;
  config.seed = 23;
  config.clients = 2;
  config.replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.auto_recover = true;
  config.tracing = true;
  config.health = true;
  monitor::health::SloSpec slo;
  slo.name = "service";
  slo.latency_metric = "service.latency_us";
  slo.request_counter = "service.requests";
  slo.latency_p99_target_us = 3'000.0;
  config.slos.push_back(slo);
  config.cpu_backlog_threshold_us = 1'000.0;
  harness::Scenario scenario(config);

  scenario.fault_plan().crash_process(msec(500), scenario.replica_pid(2));
  scenario.fault_plan().restart_process(msec(900), scenario.replica_pid(2));
  scenario.fault_plan().partition_window(msec(1100), msec(1300), {scenario.replica_host(1)},
                                         {scenario.replica_host(0), scenario.replica_host(2)});

  harness::Scenario::CycleConfig cycle;
  cycle.warmup_requests = 20;
  cycle.requests_per_client = 400;
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain(msec(500));

  EXPECT_EQ(result.completed, 840u);
  EXPECT_EQ(scenario.live_replicas(), 3);
  EXPECT_EQ(scenario.kernel().tracer().spans_dropped(), 0u);

  const auto& events = scenario.health().events();
  EXPECT_FALSE(events.empty());
  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(fnv1a_digests(digests), 0x3e626fe9bc4a72ccull) << std::hex << fnv1a_digests(digests);
  EXPECT_EQ(fnv1a_text(monitor::health::render_text(events)), 0xe0438133ab1ace1aull)
      << std::hex << fnv1a_text(monitor::health::render_text(events));
  EXPECT_EQ(fnv1a_text(obs::render_text(scenario.kernel().tracer())), 0x21e89bda061f6774ull)
      << std::hex << fnv1a_text(obs::render_text(scenario.kernel().tracer()));
}

TEST(GoldenPin, ShardedClusterHealthPlane) {
  shard::ShardedClusterConfig config;
  config.seed = 19;
  config.shards = 2;
  config.clients = 2;
  config.client_hosts = 2;
  config.server_hosts = 4;
  config.tracing = true;
  config.health = true;
  config.shard_slo_p99_target_us = 3'000.0;
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
  cluster.fault_plan().crash_process(msec(800), cluster.replica_pid(groups[0], 1));
  cluster.fault_plan().restart_process(msec(1200), cluster.replica_pid(groups[0], 1));
  const NodeId isolated = cluster.replica_process(groups[1], 0).host();
  cluster.fault_plan().partition_window(msec(1400), msec(1600), {isolated},
                                        {cluster.replica_process(groups[1], 1).host()});

  shard::ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = 80;
  const auto result = cluster.run_workload(wc);
  for (int i = 0; i < 10 && !cluster.migration().idle(); ++i) cluster.drain(msec(500));
  cluster.drain(msec(500));

  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_TRUE(migrated);
  EXPECT_EQ(cluster.kernel().tracer().spans_dropped(), 0u);

  const auto& events = cluster.health().events();
  EXPECT_FALSE(events.empty());
  std::vector<std::uint64_t> digests;
  for (GroupId g : cluster.data_groups()) {
    for (int n = 0; n < cluster.replicas_in(g); ++n) {
      if (cluster.replica_live(g, n)) digests.push_back(cluster.shard_servant(g, n).state_digest());
    }
  }
  ASSERT_EQ(digests.size(), 6u);
  EXPECT_EQ(fnv1a_digests(digests), 0x535fec604f4db6bdull) << std::hex << fnv1a_digests(digests);
  EXPECT_EQ(fnv1a_text(monitor::health::render_text(events)), 0x02460cda34363f81ull)
      << std::hex << fnv1a_text(monitor::health::render_text(events));
  EXPECT_EQ(fnv1a_text(obs::render_text(cluster.kernel().tracer())), 0xabca267860f750e0ull)
      << std::hex << fnv1a_text(obs::render_text(cluster.kernel().tracer()));
}

struct ChainPins {
  std::uint64_t digests = 0;
  std::uint64_t counters = 0;
  std::uint64_t trace = 0;
};

// One traced open-loop run of a 3-replica group with K = 4 delta chains;
// `script` schedules faults and knob changes before it starts.
ChainPins chain_pins(harness::ScenarioConfig config,
                     const std::function<void(harness::Scenario&)>& script) {
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.checkpoint_anchor_interval = 4;
  config.tracing = true;
  harness::Scenario scenario(config);
  script(scenario);

  harness::Scenario::OpenLoopConfig open;
  open.plan = app::RatePlan::constant(150);
  open.duration = sec(3);
  const auto result = scenario.run_open_loop(open);
  scenario.drain(msec(500));
  EXPECT_GT(result.totals.completed, 400u);
  EXPECT_EQ(scenario.kernel().tracer().spans_dropped(), 0u);

  // Each counter summed over every node's latest replicator.
  std::uint64_t sums[7] = {};
  for (int i = 0; i < scenario.group().size(); ++i) {
    const replication::Replicator& r = *scenario.group().node(i).replicator;
    const std::uint64_t counters[7] = {r.checkpoints_taken(),      r.checkpoints_full_taken(),
                                       r.checkpoints_delta_taken(), r.checkpoint_bytes_sent(),
                                       r.installs_full(),          r.installs_delta(),
                                       r.anchor_requests_sent()};
    for (int c = 0; c < 7; ++c) sums[c] += counters[c];
  }
  return ChainPins{fnv1a_digests(scenario.live_state_digests()),
                   fnv1a_digests(std::vector<std::uint64_t>(std::begin(sums), std::end(sums))),
                   fnv1a_text(obs::render_text(scenario.kernel().tracer()))};
}

void expect_pins(const ChainPins& got, const ChainPins& want) {
  EXPECT_EQ(got.digests, want.digests) << std::hex << got.digests;
  EXPECT_EQ(got.counters, want.counters) << std::hex << got.counters;
  EXPECT_EQ(got.trace, want.trace) << std::hex << got.trace;
}

TEST(GoldenPin, CheckpointChainPaths) {
  // Cold passive: a backup crashes and its recovered incarnation joins
  // through a donated anchor + delta bundle, then the primary crashes and
  // the senior dormant backup launches from its retained chain.
  harness::ScenarioConfig cold;
  cold.seed = 43;
  cold.style = replication::ReplicationStyle::kColdPassive;
  cold.auto_recover = true;
  expect_pins(chain_pins(cold,
                         [](harness::Scenario& s) {
                           s.fault_plan().crash_process(msec(500), s.replica_pid(2));
                           s.fault_plan().restart_process(msec(880), s.replica_pid(2));
                           s.fault_plan().crash_process(msec(1500), s.replica_pid(0));
                         }),
              ChainPins{0xea1f772dbc695d38ull, 0xcb0046c60107373dull, 0x716a4cf3710c047cull});

  // Warm passive switched to active under load: the final anchor lands while
  // delta cuts may still be in flight.
  harness::ScenarioConfig warm;
  warm.seed = 47;
  warm.style = replication::ReplicationStyle::kWarmPassive;
  expect_pins(chain_pins(warm,
                         [](harness::Scenario& s) {
                           s.kernel().post_at(msec(1200), [&s] {
                             s.group().set_style(replication::ReplicationStyle::kActive);
                           });
                         }),
              ChainPins{0x6d308858c01683edull, 0x0339eb6b9435ae92ull, 0x826f4c5a6b88e6caull});

  // Hybrid: the third replica is an observer kept warm by the head's chain.
  harness::ScenarioConfig hybrid;
  hybrid.seed = 53;
  hybrid.style = replication::ReplicationStyle::kHybrid;
  expect_pins(chain_pins(hybrid, [](harness::Scenario&) {}),
              ChainPins{0xde1e9073571f103cull, 0x9a41a846472bd857ull, 0x4303ec108e85373eull});
}

// Everything a chaos trial observes, minus flight recordings (which carry
// process names): one line per fact, in observation order.
std::string render_trial(const chaos::TrialResult& r) {
  std::string out = r.plan.to_string();
  for (const auto& f : r.verdict.failures) out += "fail " + f + "\n";
  out += "ops " + std::to_string(r.completed_ops) + " recovery_ms " +
         std::to_string(r.recovery_ms) + " finished " +
         std::to_string(r.finished_at.count()) + "\n";
  const chaos::TrialObservation& obs = r.observation;
  for (const auto& op : obs.history) {
    out += "op " + std::to_string(op.client) + " " + std::to_string(op.seq) + " " + op.op +
           " " + op.key + " " + op.token + " " + std::to_string(op.issued_at.count()) + " " +
           (op.completed_at ? std::to_string(op.completed_at->count()) : "-") +
           (op.ok ? " ok\n" : " err\n");
  }
  for (const auto& rs : obs.replicas) {
    out += "replica " + std::to_string(rs.index) + " live " + std::to_string(rs.live) +
           " responder " + std::to_string(rs.responder) + " view " +
           (rs.view_id ? std::to_string(*rs.view_id) : "-");
    for (ProcessId m : rs.view_members) out += " " + m.str();
    out += "\n";
    for (const auto& [key, value] : rs.logs) out += "  " + key + "=" + value + "\n";
  }
  for (const auto& c : obs.checkpoints) {
    out += "ckpt " + std::to_string(c.replica) + " " + std::to_string(c.incarnation) + " " +
           std::to_string(c.checkpoint_id) + "\n";
  }
  const chaos::ShardObservation& sobs = r.shard_observation;
  out += "migrations " + std::to_string(sobs.migrations_attempted) + "/" +
         std::to_string(sobs.migrations_committed) + " epoch " +
         std::to_string(sobs.final_map.epoch()) + "\n";
  for (const auto& g : sobs.groups) {
    out += "group " + g.group.str() + " live " + std::to_string(g.any_live);
    for (const auto& range : g.owned) out += " " + range.str();
    out += "\n";
    for (const auto& [key, value] : g.logs) out += "  " + key + "=" + value + "\n";
    for (const auto& key : g.keys) out += "  " + key + "\n";
  }
  return out + monitor::health::render_text(r.health_observation.events);
}

std::uint64_t campaign_pin(const chaos::CampaignConfig& config) {
  std::string text;
  const auto result = chaos::run_campaign(
      config, [&text](int index, const chaos::TrialConfig&, const chaos::TrialResult& r) {
        text += "trial " + std::to_string(index) + "\n" + render_trial(r);
      });
  EXPECT_EQ(result.trials, config.trials);
  return fnv1a_text(text);
}

TEST(GoldenPin, ChaosTrialObservations) {
  chaos::CampaignConfig single;
  single.seed = 31;
  single.trials = 20;
  single.base.health = true;
  const std::uint64_t single_pin = campaign_pin(single);
  EXPECT_EQ(single_pin, 0x2a80e7ea9b845d8full) << std::hex << single_pin;

  chaos::CampaignConfig sharded;
  sharded.seed = 37;
  sharded.trials = 8;
  sharded.shard_counts = {8};
  sharded.replica_counts = {2};
  sharded.styles = {replication::ReplicationStyle::kActive,
                    replication::ReplicationStyle::kWarmPassive};
  sharded.base.faults.slow_hosts = 0;
  const std::uint64_t sharded_pin = campaign_pin(sharded);
  EXPECT_EQ(sharded_pin, 0xc918039e857ac589ull) << std::hex << sharded_pin;
}

}  // namespace
}  // namespace vdep
