// Checkpoint rounds that cost what changed: a timer round on a clean group
// is skipped unless the cut is owed (a donation, an anchor request, a switch
// final), and a delta carries only the frontier entries that moved and the
// replies added since its base. Installers merge a delta's entries, so warm
// installs, cold stored chains and state-transfer bundles all end where a
// full checkpoint of the same cut would put them.
#include <gtest/gtest.h>

#include <string>

#include "app/test_app.hpp"
#include "harness/scenario.hpp"
#include "replication/types.hpp"

namespace vdep::harness {
namespace {

using replication::Replicator;
using replication::ReplicationStyle;

constexpr SimTime kTick = calib::kDefaultCheckpointInterval;

void run_for(Scenario& scenario, SimTime d) {
  scenario.kernel().run_until(scenario.kernel().now() + d);
}

// Clients `first`, `first + step`, ... each issue one request, then 300 ms
// pass for the replies. Returns how many requests were issued.
int request_round(Scenario& scenario, int first, int step) {
  int issued = 0;
  for (int c = first; c < scenario.config().clients; c += step) {
    scenario.client_orb(c).invoke(scenario.object_ref(), "process",
                                  Bytes(32, static_cast<std::uint8_t>(c)),
                                  [](orb::ReplyStatus, Bytes) {});
    ++issued;
  }
  scenario.drain(msec(300));
  return issued;
}

// --- clean rounds --------------------------------------------------------------

ScenarioConfig idle_config(int replicas) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = replicas;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  config.checkpoint_anchor_interval = 4;
  return config;
}

// Forms the group and lets its first (owed) anchor land; returns the
// primary's cut count once ten idle intervals have added none.
std::uint64_t settle_clean(Scenario& scenario) {
  scenario.kernel().run_until(msec(500));
  const std::uint64_t cuts = scenario.replicator(0).checkpoints_taken();
  EXPECT_GE(scenario.replicator(0).checkpoints_full_taken(), 1u);
  run_for(scenario, kTick * 10);
  EXPECT_EQ(scenario.replicator(0).checkpoints_taken(), cuts);
  return cuts;
}

TEST(CleanRounds, IdleGroupCutsNothingAndOneRequestCutsOnce) {
  Scenario scenario(idle_config(3));
  const std::uint64_t cuts = settle_clean(scenario);
  EXPECT_EQ(scenario.replicator(1).installs_full(), 1u);

  EXPECT_EQ(request_round(scenario, 0, 1), 1);
  run_for(scenario, kTick * 10);
  EXPECT_EQ(scenario.replicator(0).checkpoints_taken(), cuts + 1);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).installs_full() + scenario.replicator(i).installs_delta(),
              2u)
        << "replica " << i;
  }
  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(CleanRounds, DonationCutsOnACleanGroup) {
  Scenario scenario(idle_config(2));
  const std::uint64_t cuts = settle_clean(scenario);

  scenario.group().set_replica_count(3);
  run_for(scenario, sec(1));
  EXPECT_EQ(scenario.replicator(0).checkpoints_taken(), cuts + 1);
  EXPECT_TRUE(scenario.replicator(2).initialized());
  EXPECT_GE(scenario.replicator(2).installs_full(), 1u);
}

TEST(CleanRounds, AnchorRequestCutsOnACleanGroup) {
  Scenario scenario(idle_config(3));
  const std::uint64_t cuts = settle_clean(scenario);
  const std::uint64_t anchors = scenario.replicator(0).checkpoints_full_taken();

  // What a backup multicasts when it finds a gap in its chain.
  replication::RepEnvelope env{replication::RepEnvelope::Type::kAnchorRequest, {}};
  scenario.replicator(1).endpoint().multicast(scenario.group().id(),
                                              gcs::ServiceType::kAgreed, env.encode());
  run_for(scenario, msec(200));
  EXPECT_EQ(scenario.replicator(0).checkpoints_taken(), cuts + 1);
  EXPECT_EQ(scenario.replicator(0).checkpoints_full_taken(), anchors + 1);
}

TEST(CleanRounds, SwitchFinalCutsOnACleanGroup) {
  Scenario scenario(idle_config(3));
  const std::uint64_t cuts = settle_clean(scenario);
  const std::uint64_t anchors = scenario.replicator(0).checkpoints_full_taken();

  scenario.replicator(0).request_style_switch(ReplicationStyle::kActive);
  run_for(scenario, msec(300));
  EXPECT_EQ(scenario.replicator(0).checkpoints_taken(), cuts + 1);
  EXPECT_EQ(scenario.replicator(0).checkpoints_full_taken(), anchors + 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).style(), ReplicationStyle::kActive) << "replica " << i;
  }
}

// --- delta contents ------------------------------------------------------------

constexpr int kChainClients = 50;
constexpr int kChainDeltas = 6;

ScenarioConfig chain_config(ReplicationStyle style, int replicas) {
  ScenarioConfig config;
  config.clients = kChainClients;
  config.replicas = replicas;
  config.max_replicas = 3;
  config.style = style;
  config.checkpoint_anchor_interval = 16;
  // Cuts are taken below, not by the timer or the request count.
  config.checkpoint_interval = sec(600);
  config.checkpoint_every_requests = 1000000;
  return config;
}

// One anchor after a request from every client, then kChainDeltas deltas,
// each after a round from a different subset of the clients (25 down to 8
// of them, so some deltas carry more than the 16 replies a checkpoint keeps
// and some fewer). Returns the number of requests issued.
int build_chain(Scenario& scenario) {
  scenario.kernel().run_until(msec(300));  // group forms
  int issued = request_round(scenario, 0, 1);
  scenario.replicator(0).take_checkpoint(/*force_full=*/true);
  scenario.drain();
  for (int d = 0; d < kChainDeltas; ++d) {
    issued += request_round(scenario, d % 2, d + 2);
    scenario.replicator(0).take_checkpoint();
    scenario.drain();
  }
  EXPECT_EQ(scenario.replicator(0).checkpoints_delta_taken(),
            static_cast<std::uint64_t>(kChainDeltas));
  return issued;
}

// What a full checkpoint cut at the chain's tip would install.
struct FullCut {
  replication::AppliedFrontier applied;
  Payload replies;
};

FullCut full_cut_of(const Replicator& taker) {
  return {taker.applied_frontier(), taker.reply_cache().serialize_recent(16)};
}

void expect_installed(const Replicator& replica, const FullCut& full) {
  EXPECT_EQ(replica.applied_frontier(), full.applied);
  EXPECT_EQ(replica.applied_frontier().size(), static_cast<std::size_t>(kChainClients));
  EXPECT_EQ(replica.reply_cache().size(), 16u);
  EXPECT_EQ(replica.reply_cache().serialize_recent(16), full.replies);
}

TEST(DeltaContents, WarmChainInstallEqualsAFullInstall) {
  Scenario scenario(chain_config(ReplicationStyle::kWarmPassive, 3));
  build_chain(scenario);
  const FullCut full = full_cut_of(scenario.replicator(0));
  for (int i = 1; i < 3; ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    EXPECT_EQ(scenario.replicator(i).installs_full(), 1u);
    EXPECT_EQ(scenario.replicator(i).installs_delta(), static_cast<std::uint64_t>(kChainDeltas));
    expect_installed(scenario.replicator(i), full);
  }
}

TEST(DeltaContents, ColdStoredChainInstallEqualsAFullInstall) {
  Scenario scenario(chain_config(ReplicationStyle::kColdPassive, 2));
  build_chain(scenario);
  const FullCut full = full_cut_of(scenario.replicator(0));
  EXPECT_EQ(scenario.replicator(1).installs_full(), 0u);  // stored, not applied

  // The backup's cold launch installs the stored anchor and delta suffix.
  scenario.fault_plan().crash_process(scenario.kernel().now() + msec(10),
                                      scenario.replica_pid(0));
  scenario.arm_faults();
  run_for(scenario, sec(3));
  ASSERT_TRUE(scenario.replicator(1).is_responder());
  EXPECT_EQ(scenario.replicator(1).installs_full(), 1u);
  EXPECT_EQ(scenario.replicator(1).installs_delta(), static_cast<std::uint64_t>(kChainDeltas));
  expect_installed(scenario.replicator(1), full);
}

TEST(DeltaContents, StateTransferBundleInstallEqualsAFullInstall) {
  Scenario scenario(chain_config(ReplicationStyle::kWarmPassive, 2));
  build_chain(scenario);

  // The joiner's donation bundles the anchor, the chain and one fresh delta.
  scenario.group().set_replica_count(3);
  run_for(scenario, sec(1));
  Replicator& joiner = scenario.replicator(2);
  ASSERT_TRUE(joiner.initialized());
  EXPECT_EQ(joiner.installs_full(), 1u);
  EXPECT_EQ(joiner.installs_delta(), static_cast<std::uint64_t>(kChainDeltas + 1));
  expect_installed(joiner, full_cut_of(scenario.replicator(0)));
}

TEST(DeltaContents, WarmPromotionAfterTheChainStaysExactlyOnce) {
  Scenario scenario(chain_config(ReplicationStyle::kWarmPassive, 3));
  int issued = build_chain(scenario);

  // The primary dies with a round in flight; the promoted backup replays its
  // log over the chain-installed frontier and the clients retry.
  scenario.fault_plan().crash_process(scenario.kernel().now() + usec(600),
                                      scenario.replica_pid(0));
  scenario.arm_faults();
  int replies = 0;
  for (int c = 0; c < kChainClients; ++c) {
    scenario.client_orb(c).invoke(scenario.object_ref(), "process",
                                  Bytes(32, static_cast<std::uint8_t>(c)),
                                  [&replies](orb::ReplyStatus status, Bytes) {
                                    if (status == orb::ReplyStatus::kNoException) ++replies;
                                  });
    ++issued;
  }
  run_for(scenario, sec(5));
  EXPECT_FALSE(scenario.replica_process(0).alive());
  EXPECT_EQ(replies, kChainClients);
  EXPECT_EQ(scenario.servant(1).counter(), static_cast<std::uint64_t>(issued));
}

// --- full installs -------------------------------------------------------------

// A full install replaces the frontier: a client the anchor lacks is no
// longer applied here, whether it sorts before the anchor's clients (the
// merge's in-loop erase) or after them (its tail erase).
TEST(FullInstall, DropsFrontierClientsTheAnchorLacks) {
  ScenarioConfig config = idle_config(3);
  config.clients = 3;
  config.checkpoint_anchor_interval = 1;
  Scenario scenario(config);
  settle_clean(scenario);
  EXPECT_EQ(request_round(scenario, 0, 1), 3);
  run_for(scenario, kTick * 4);
  Replicator& backup = scenario.replicator(1);
  const replication::AppliedFrontier before = backup.applied_frontier();
  ASSERT_EQ(before.size(), 3u);

  // An anchor that holds only the middle client, multicast as another
  // replica's checkpoint.
  replication::CheckpointMsg anchor;
  anchor.checkpoint_id = 0xfeed;
  anchor.applied = {before[1]};
  anchor.app_state = Payload(backup.app().snapshot());
  anchor.reply_cache = Payload(replication::ReplyCache().serialize_recent(0));
  const replication::RepEnvelope env{replication::RepEnvelope::Type::kCheckpoint,
                                     Payload(anchor.encode())};
  scenario.replicator(2).endpoint().multicast(scenario.group().id(), gcs::ServiceType::kSafe,
                                              env.encode());
  const std::uint64_t installs = backup.installs_full();
  run_for(scenario, msec(200));
  EXPECT_GT(backup.installs_full(), installs);
  EXPECT_EQ(backup.applied_frontier(), anchor.applied);
}

// A full install decodes every part before it applies any: an anchor whose
// app state is valid but whose reply list is cut short installs nothing, and
// the replica drops it without stopping the run.
TEST(FullInstall, MalformedReplyListInstallsNothing) {
  ScenarioConfig config = idle_config(3);
  config.clients = 3;
  config.checkpoint_anchor_interval = 1;
  Scenario scenario(config);
  settle_clean(scenario);
  EXPECT_EQ(request_round(scenario, 0, 1), 3);
  run_for(scenario, kTick * 4);
  Replicator& backup = scenario.replicator(1);
  const replication::AppliedFrontier frontier = backup.applied_frontier();
  ASSERT_EQ(frontier.size(), 3u);
  const std::uint64_t digest = backup.app().state_digest();
  const auto cached = [&backup] {
    return backup.reply_cache().serialize_recent(backup.reply_cache().size());
  };
  const Payload replies = cached();
  ASSERT_FALSE(backup.reply_cache().size() == 0);
  const std::uint64_t installs = backup.installs_full();

  // A fresh servant's state for one client, and a reply list missing its
  // last byte.
  replication::CheckpointMsg anchor;
  anchor.checkpoint_id = 0xfeed;
  anchor.applied = {frontier[1]};
  anchor.app_state = Payload(app::TestServant().snapshot());
  Bytes truncated = replies.to_bytes();
  truncated.pop_back();
  anchor.reply_cache = Payload(std::move(truncated));
  const replication::RepEnvelope env{replication::RepEnvelope::Type::kCheckpoint,
                                     Payload(anchor.encode())};
  scenario.replicator(2).endpoint().multicast(scenario.group().id(), gcs::ServiceType::kSafe,
                                              env.encode());
  // The replicas drop the malformed anchor; the run goes on.
  run_for(scenario, msec(200));
  EXPECT_EQ(backup.app().state_digest(), digest);
  EXPECT_EQ(backup.applied_frontier(), frontier);
  EXPECT_EQ(cached(), replies);
  EXPECT_EQ(backup.installs_full(), installs);
}

// --- chain gaps ------------------------------------------------------------------

// A delta whose base is not a backup's chain position is a gap: the backup
// skips it and asks the taker for a full anchor, and later deltas chain onto
// that anchor. A warm backup then holds the taker's state; a cold backup only
// retains the chain, so it holds the taker's state once it is promoted.
class ChainGap : public ::testing::TestWithParam<ReplicationStyle> {};

TEST_P(ChainGap, BackupRequestsAnAnchorAndConverges) {
  ScenarioConfig config = idle_config(3);
  config.clients = 3;
  config.style = GetParam();
  Scenario scenario(config);
  settle_clean(scenario);
  EXPECT_EQ(request_round(scenario, 0, 1), 3);
  run_for(scenario, kTick * 4);

  // A delta of another lineage, multicast as another replica's checkpoint.
  // Its base check comes first, so its parts are never decoded.
  replication::CheckpointMsg gap;
  gap.kind = replication::CheckpointMsg::Kind::kDelta;
  gap.checkpoint_id = 0xbeef;
  gap.base_epoch = 0xbee0;
  gap.delta_epoch = 0xbeef;
  gap.reply_cache = Payload(replication::ReplyCache().serialize_recent(0));
  const replication::RepEnvelope env{replication::RepEnvelope::Type::kCheckpointDelta,
                                     Payload(gap.encode())};
  scenario.replicator(2).endpoint().multicast(scenario.group().id(), gcs::ServiceType::kSafe,
                                              env.encode());
  run_for(scenario, msec(300));
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).anchor_requests_sent(), 1u) << "replica " << i;
  }

  // Requests after the gap travel as deltas on the re-requested anchor.
  const std::uint64_t deltas = scenario.replicator(0).checkpoints_delta_taken();
  EXPECT_EQ(request_round(scenario, 0, 1), 3);
  run_for(scenario, kTick * 4);
  EXPECT_GT(scenario.replicator(0).checkpoints_delta_taken(), deltas);
  const std::uint64_t taker = scenario.replicator(0).app().state_digest();
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).anchor_requests_sent(), 1u) << "replica " << i;
  }

  if (GetParam() == ReplicationStyle::kWarmPassive) {
    for (int i = 1; i < 3; ++i) {
      EXPECT_EQ(scenario.replicator(i).app().state_digest(), taker) << "replica " << i;
    }
    return;
  }
  scenario.fault_plan().crash_process(scenario.kernel().now() + msec(10),
                                      scenario.replica_pid(0));
  scenario.arm_faults();
  run_for(scenario, sec(3));
  ASSERT_TRUE(scenario.replicator(1).is_responder());
  EXPECT_EQ(scenario.replicator(1).app().state_digest(), taker);
}

INSTANTIATE_TEST_SUITE_P(PassiveStyles, ChainGap,
                         ::testing::Values(ReplicationStyle::kWarmPassive,
                                           ReplicationStyle::kColdPassive),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace vdep::harness
