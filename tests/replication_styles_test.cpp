// End-to-end behaviour of every replication style on a live scenario:
// correct replies, replica consistency, exactly-once execution counters, and
// the style-specific properties (who replies, who logs, reply bandwidth).
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "harness/scenario.hpp"

namespace vdep::harness {
namespace {

using replication::ReplicationStyle;

struct StyleCase {
  ReplicationStyle style;
  const char* name;
};

// Expected role of each replica (by view rank) after the cycle, one
// three-letter code per rank: R = responds to clients, E = executed requests,
// I = installed checkpoints; '-' marks a role it does not hold. Kept out of
// StyleCase: gtest prints the parameter's raw bytes into each test's name.
std::array<const char*, 3> expected_roles(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kActive: return {"RE-", "RE-", "RE-"};
    case ReplicationStyle::kSemiActive: return {"RE-", "-E-", "-E-"};
    case ReplicationStyle::kWarmPassive: return {"RE-", "--I", "--I"};
    case ReplicationStyle::kColdPassive: return {"RE-", "---", "---"};
    case ReplicationStyle::kHybrid: return {"RE-", "RE-", "--I"};
  }
  return {};
}

class StylesTest : public ::testing::TestWithParam<StyleCase> {};

TEST_P(StylesTest, CycleCompletesWithConsistentReplicas) {
  ScenarioConfig config;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = GetParam().style;
  Scenario scenario(config);

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 250;
  cycle.warmup_requests = 20;
  const ExperimentResult result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 540u);
  EXPECT_EQ(result.retransmissions, 0u);
  EXPECT_EQ(result.faults_tolerated, 2);

  // Exactly-once at the application: total unique requests == 540.
  const std::uint64_t total = 540;
  if (GetParam().style == ReplicationStyle::kActive ||
      GetParam().style == ReplicationStyle::kSemiActive) {
    // Every replica executed everything, exactly once.
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(scenario.servant(i).counter(), total) << "replica " << i;
    }
    scenario.drain();
  auto digests = scenario.live_state_digests();
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[1], digests[2]);
  } else {
    // Passive: only the primary executed; backups hold checkpointed state.
    EXPECT_EQ(scenario.servant(0).counter(), total);
    // Warm backups lag by at most the checkpoint window: their logs stay
    // bounded because checkpoints keep truncating them.
    if (GetParam().style == ReplicationStyle::kWarmPassive) {
      EXPECT_LT(scenario.replicator(1).message_log().size(), 400u);
      EXPECT_GT(scenario.servant(1).counter(), total / 2);  // checkpoints applied
    }
  }

  const auto all_roles = expected_roles(GetParam().style);
  for (int i = 0; i < 3; ++i) {
    const replication::Replicator& rep = scenario.replicator(i);
    const std::string roles = all_roles[i];
    EXPECT_EQ(rep.is_responder(), roles[0] == 'R') << "replica " << i;
    EXPECT_EQ(rep.requests_executed() > 0, roles[1] == 'E') << "replica " << i;
    EXPECT_EQ(rep.installs_full() + rep.installs_delta() > 0, roles[2] == 'I')
        << "replica " << i;
  }
}

// Static storage zero-fills the padding after `style`; gtest prints the
// parameter's raw bytes into the test name, so stack-built cases would give
// names that change from build to build.
constexpr StyleCase kStyleCases[] = {
    {ReplicationStyle::kActive, "active"},
    {ReplicationStyle::kSemiActive, "semi_active"},
    {ReplicationStyle::kWarmPassive, "warm_passive"},
    {ReplicationStyle::kColdPassive, "cold_passive"},
    {ReplicationStyle::kHybrid, "hybrid"},
};

INSTANTIATE_TEST_SUITE_P(
    AllStyles, StylesTest, ::testing::ValuesIn(kStyleCases),
    [](const auto& info) { return std::string(info.param.name); });

ExperimentResult run_style(ReplicationStyle style, int clients, int replicas,
                           int requests = 400) {
  ScenarioConfig config;
  config.clients = clients;
  config.replicas = replicas;
  config.max_replicas = replicas;
  config.style = style;
  Scenario scenario(config);
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = requests;
  cycle.warmup_requests = 40;
  return scenario.run_closed_loop(cycle);
}

TEST(StyleProperties, SemiActiveUsesLessWirePerRequestThanActive) {
  const auto active = run_style(ReplicationStyle::kActive, 2, 3);
  const auto semi = run_style(ReplicationStyle::kSemiActive, 2, 3);
  // Followers execute but stay silent: two of the three reply legs vanish.
  // Compare bytes *per request* — semi's lower latency raises its request
  // rate, which hides the saving in a plain MB/s comparison.
  const auto bytes_per_req = [](const ExperimentResult& r) {
    return r.bandwidth_mbps * 1e6 / r.throughput_rps;
  };
  EXPECT_LT(bytes_per_req(semi), bytes_per_req(active) * 0.85);
  // Latency comparable or better (one reply to race instead of three).
  EXPECT_LT(semi.avg_latency_us, active.avg_latency_us * 1.15);
}

TEST(StyleProperties, PassiveSlowerButLeaner) {
  const auto active = run_style(ReplicationStyle::kActive, 3, 3);
  const auto passive = run_style(ReplicationStyle::kWarmPassive, 3, 3);
  EXPECT_GT(passive.avg_latency_us, active.avg_latency_us * 1.3);
  // The paper's Fig. 7(b): at small client counts passive pays checkpoint
  // bandwidth, but its *request* traffic is 1/k of active's; the crossover
  // shows at higher client counts where active's fan-out dominates.
  EXPECT_GT(passive.jitter_us, active.jitter_us);
}

TEST(StyleProperties, ActiveBandwidthGrowsWithReplicas) {
  const auto a1 = run_style(ReplicationStyle::kActive, 2, 1);
  const auto a3 = run_style(ReplicationStyle::kActive, 2, 3);
  EXPECT_GT(a3.bandwidth_mbps, a1.bandwidth_mbps * 1.8);
}

TEST(StyleProperties, PassiveBandwidthBarelyGrowsWithBackups) {
  const auto p2 = run_style(ReplicationStyle::kWarmPassive, 2, 2);
  const auto p3 = run_style(ReplicationStyle::kWarmPassive, 2, 3);
  // One more backup adds one more checkpoint stream, not a full request fan-out.
  EXPECT_LT(p3.bandwidth_mbps, p2.bandwidth_mbps * 1.6);
}

TEST(StyleProperties, MajorityVotingDeliversSameResults) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  config.response_policy = replication::ResponsePolicy::kMajorityVoting;
  Scenario scenario(config);
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 200;
  cycle.warmup_requests = 20;
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 220u);
  // Voting needs at least 2 of 3 replies: latency >= first-reply latency.
  const auto first = run_style(ReplicationStyle::kActive, 1, 3, 200);
  EXPECT_GE(result.avg_latency_us, first.avg_latency_us * 0.95);
}

TEST(StyleProperties, ExpiredRequestsAreDroppedDeterministically) {
  // FT_REQUEST expiration: requests the client gave up on long ago are not
  // worth executing. Inject one directly through a replicator endpoint.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 2;
  config.style = ReplicationStyle::kActive;
  Scenario scenario(config);
  // Boot and let the group form.
  scenario.kernel().run_until(msec(300));

  orb::RequestMessage req;
  req.request_id = 777;
  req.object_key = ObjectId{1};
  req.operation = "process";
  req.body = filler_bytes(16);
  orb::FtRequestContext ctx;
  ctx.client = ProcessId{9999};
  ctx.retention_id = 777;
  ctx.client_daemon = NodeId{0};
  ctx.expiration = msec(1);  // expired long before delivery
  req.service_contexts.push_back(ctx.to_context());
  replication::RepEnvelope env{replication::RepEnvelope::Type::kRequest, req.encode()};
  scenario.replicator(0).endpoint().multicast(scenario.replicator(0).group(),
                                              gcs::ServiceType::kAgreed, env.encode());
  scenario.kernel().run_until(msec(600));

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(scenario.replicator(i).expired_requests_dropped(), 1u) << i;
    EXPECT_EQ(scenario.servant(i).counter(), 0u) << i;
  }
}

TEST(StyleProperties, SingleReplicaAllStylesEquivalentCompletion) {
  for (auto style : {ReplicationStyle::kActive, ReplicationStyle::kWarmPassive,
                     ReplicationStyle::kColdPassive, ReplicationStyle::kSemiActive}) {
    const auto r = run_style(style, 1, 1, 150);
    EXPECT_EQ(r.completed, 190u) << replication::to_string(style);
  }
}

}  // namespace
}  // namespace vdep::harness
