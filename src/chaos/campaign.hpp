// Chaos campaign runner: seeded trials over the dependability design space.
//
// One trial = build a replicated KV scenario, generate (or accept) a fault
// schedule, run a recorded client workload through it, then judge the
// completed run with the invariant oracles. A trial is reproducible from
// (seed, config) alone — the schedule, the workload mix, every network
// coin-flip and the final verdict all derive from them deterministically.
//
// A campaign sweeps trials across {replication style x replica count x
// checkpoint frequency} and aggregates verdicts and recovery-time metrics
// into monitor::MetricsRegistry / sim::TimeSeries.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"
#include "monitor/metrics.hpp"
#include "replication/types.hpp"

namespace vdep::chaos {

struct TrialConfig {
  std::uint64_t seed = 1;
  replication::ReplicationStyle style = replication::ReplicationStyle::kWarmPassive;
  int clients = 2;
  int replicas = 3;
  SimTime checkpoint_interval = msec(50);
  std::uint32_t checkpoint_every_requests = 25;
  // Incremental checkpointing: every K-th checkpoint is a full anchor (1 =
  // all full, the pre-delta protocol).
  std::uint32_t checkpoint_anchor_interval = 1;

  int ops_per_client = 100;
  SimTime op_gap = msec(12);
  double append_ratio = 0.7;

  SchedulePolicy faults;

  // Judging knobs.
  SimTime recovery_bound = sec(12);  // client retry budget is ~10 s
  SimTime hard_deadline = sec(25);   // absolute per-trial cutoff

  // Deliberate safety bug (reply dedup disabled) — used to validate that
  // the oracles actually catch violations. See ReplicatorParams.
  bool inject_dedup_bug = false;

  // Live health plane: attach a HealthMonitor to the trial scenario, feed
  // client latencies into the service SLO, and judge the run with the
  // detection oracle — every injected crash/partition must be flagged within
  // detection_bound, and fault-free control trials must raise no alarm.
  bool health = false;
  SimTime detection_bound = msec(400);

  // Record causal spans (obs::Tracer) during the trial and attach a
  // Chrome-trace flight recording to the result. Deterministic: re-running
  // the same (seed, config) reproduces the recording byte for byte, which is
  // how failing campaign trials get their post-mortem recordings.
  bool record_spans = false;

  // Sharded scale-out trials: shards > 1 builds a shard::ShardedCluster
  // (directory group + one replica group per shard, routed clients) instead
  // of a single-group Scenario, performs `splits` online shard splits while
  // the workload runs, and injects the fault budget *inside* the split
  // windows. Judged by the shard oracles (ownership + migration integrity)
  // plus bounded recovery; see run_shard_trial.
  int shards = 1;
  int splits = 2;
};

struct TrialResult {
  net::FaultPlan plan;
  Verdict verdict;
  TrialObservation observation;
  ShardObservation shard_observation;    // populated when shards > 1
  HealthObservation health_observation;  // populated when health is on
  SimTime finished_at = kTimeZero;
  SimTime last_fault_end = kTimeZero;
  double recovery_ms = 0.0;  // last fault effect -> workload completion
  std::uint64_t completed_ops = 0;

  // Span telemetry (populated when TrialConfig::record_spans is set).
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::string flight_recording;  // Chrome-trace JSON of the whole trial

  [[nodiscard]] bool pass() const { return verdict.pass(); }
};

// Runs one trial with a schedule generated from the trial seed.
[[nodiscard]] TrialResult run_trial(const TrialConfig& config);

// Runs one trial with an explicit schedule (the shrinker's entry point; also
// how a minimal reproducer is replayed).
[[nodiscard]] TrialResult run_trial(const TrialConfig& config,
                                    const net::FaultPlan& plan);

struct CampaignConfig {
  std::uint64_t seed = 1;
  int trials = 200;
  std::vector<replication::ReplicationStyle> styles = {
      replication::ReplicationStyle::kActive,
      replication::ReplicationStyle::kWarmPassive,
      replication::ReplicationStyle::kColdPassive,
      replication::ReplicationStyle::kSemiActive,
      replication::ReplicationStyle::kHybrid,
  };
  std::vector<int> replica_counts = {2, 3};
  std::vector<std::uint32_t> checkpoint_frequencies = {10, 25};
  // Outermost sweep dimension (so adding it kept the configs at existing
  // sweep positions unchanged): full-anchor cadence for delta checkpoints.
  std::vector<std::uint32_t> anchor_intervals = {1, 4};
  // New outermost dimension (same preservation rule): shard counts. 1 =
  // classic single-group trial; > 1 = sharded trial with online splits.
  std::vector<int> shard_counts = {1};
  TrialConfig base;  // everything not swept

  // Trial-fleet parallelism: > 1 runs trials on a work-stealing pool (one
  // isolated Kernel per trial) and commits results in trial-index order, so
  // the campaign output — metrics, failures, JSON, on_trial sequence — is
  // byte-identical to the serial (workers == 1) run with the same seeds.
  int workers = 1;
};

struct CampaignFailure {
  int trial_index = 0;
  TrialConfig config;
  net::FaultPlan plan;
  std::vector<std::string> failures;
  // Post-mortem: the failing trial re-run deterministically with span
  // recording on; load in chrome://tracing / ui.perfetto.dev.
  std::string flight_recording;
};

struct CampaignResult {
  int trials = 0;
  int passed = 0;
  monitor::MetricsRegistry metrics;          // counters + recovery distribution
  sim::TimeSeries recovery_series{"chaos_recovery_ms"};  // x = trial index (ns)
  std::vector<CampaignFailure> failures;

  [[nodiscard]] bool all_passed() const { return passed == trials; }
};

// Derives the trial config for sweep position `index` (public so a failing
// trial can be reproduced from the campaign seed and its index alone).
[[nodiscard]] TrialConfig campaign_trial_config(const CampaignConfig& config, int index);

// Runs the sweep. `on_trial` (optional) observes each finished trial, always
// in trial-index order — with workers > 1 a trial's callback fires once every
// lower-indexed trial has committed.
[[nodiscard]] CampaignResult run_campaign(
    const CampaignConfig& config,
    const std::function<void(int, const TrialConfig&, const TrialResult&)>& on_trial = {});

// The campaign summary as JSON (what examples/chaos_runner records to
// BENCH_chaos.json; also the byte-identity witness for the serial-vs-parallel
// determinism tests).
[[nodiscard]] std::string to_json(const CampaignConfig& config,
                                  const CampaignResult& result);

}  // namespace vdep::chaos
