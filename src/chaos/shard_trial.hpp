// The two trial kinds behind run_trial, and the skeleton they share.
//
// A single-group trial (campaign.cpp) runs on a harness::Scenario; a sharded
// trial (shard_trial.cpp) builds a shard::ShardedCluster (replicated
// directory + one replica group per shard + routed clients), performs
// `splits` online shard splits while the clients are in flight, and injects
// the fault budget *inside* the split windows — crashes and partitions land
// exactly when a range is frozen, donated or being installed. It is judged
// with the shard oracles (ownership and migration integrity) plus the
// bounded-recovery oracle.
//
// Each kind supplies only what differs: the harness, the plan, the splits
// and the replica or shard observation. drive_trial does the rest once for
// both: one RecordedClient per harness client endpoint, the kernel stopped
// when the last one finishes, the run to the deadline, the merged histories,
// finished_at / completed_ops / recovery_ms, and the span export.
//
// Deterministic in (seed, config, plan): the split schedule, a generated
// fault plan and every workload coin-flip derive from forked streams of the
// trial seed. An explicit non-empty plan replaces the generated one for both
// kinds, so the shrinker minimizes sharded failures too.
#pragma once

#include "chaos/campaign.hpp"
#include "chaos/history.hpp"

namespace vdep::chaos {

// Every trial runs at least this long (absolute sim time) before it is cut.
inline constexpr SimTime kTrialHardDeadline = sec(25);

// What one trial kind hands to drive_trial.
struct TrialKind {
  sim::Kernel& kernel;
  const net::FaultPlan& plan;  // armed
  SimTime deadline;            // the workload's hard stop
  SimTime first_op;            // client c issues first at first_op + c * stagger
  SimTime stagger;
  // Builds client `config.index` on its harness endpoint; drive_trial has
  // filled in everything but the put/get key space.
  std::function<std::unique_ptr<RecordedClient>(RecordedClient::Config config, Rng rng)>
      client;
  // Runs after the workload phase, before anything is observed.
  std::function<void()> settle;
};

// Runs the clients and returns the result with the client half of the
// observation filled in; the caller adds its verdict. The clients die with
// this call, so the caller must not run the kernel again afterwards.
[[nodiscard]] TrialResult drive_trial(const TrialConfig& config, const TrialKind& kind);

[[nodiscard]] TrialResult run_shard_trial(const TrialConfig& config,
                                          const net::FaultPlan& plan);

}  // namespace vdep::chaos
