#include "chaos/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "app/kv_store.hpp"
#include "chaos/shard_trial.hpp"
#include "harness/scenario.hpp"
#include "obs/export.hpp"
#include "sim/parallel/steal_pool.hpp"
#include "util/assert.hpp"

namespace vdep::chaos {

namespace {

constexpr SimTime kOpGap = msec(12);  // client think time between ops

// splitmix64: decorrelates per-trial seeds derived from one campaign seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Replica indexes the schedule removes for good: node kills, and crashed
// processes whose restart was dropped (by the shrinker).
std::set<int> permanently_lost(const net::FaultPlan& plan,
                               const harness::Scenario& scenario) {
  std::set<int> lost;
  const int replicas = scenario.config().replicas;
  for (int r = 0; r < replicas; ++r) {
    bool down = false;
    for (const auto& a : plan.actions()) {  // actions are in schedule order
      if (a.kind == net::FaultAction::Kind::kCrashNode &&
          a.node == scenario.replica_host(r)) {
        down = true;
      }
      if (a.kind == net::FaultAction::Kind::kRestoreNode &&
          a.node == scenario.replica_host(r)) {
        down = false;  // host back up, but its processes stay dead
      }
      if (a.kind == net::FaultAction::Kind::kCrashProcess &&
          a.pid == scenario.replica_pid(r)) {
        down = true;
      }
      if (a.kind == net::FaultAction::Kind::kRestartProcess &&
          a.pid == scenario.replica_pid(r)) {
        down = false;
      }
    }
    if (down) lost.insert(r);
  }
  return lost;
}

// Sends recorded ops to the scenario's KvStore through client endpoint
// `orb`; with health on, each reply also feeds the service SLO metrics.
RecordedClient::Send kv_sender(harness::Scenario& scenario, orb::ClientOrb& orb) {
  return [&scenario, &orb](const OpRecord& op, const std::string& value,
                           RecordedClient::Done done) {
    using app::KvStoreServant;
    Bytes args = op.op == "append" ? KvStoreServant::encode_append(op.key, value)
                 : op.op == "put"  ? KvStoreServant::encode_put(op.key, value)
                                   : KvStoreServant::encode_key(op.key);
    orb.invoke(scenario.object_ref(), op.op, std::move(args),
               [&scenario, issued = op.issued_at, done = std::move(done)](
                   orb::ReplyStatus status, Bytes) {
                 const bool ok = status == orb::ReplyStatus::kNoException;
                 if (scenario.health_enabled()) {
                   auto& metrics = scenario.metrics();
                   metrics.observe("service.latency_us",
                                   to_usec(scenario.kernel().now() - issued));
                   metrics.add("service.requests");
                   if (!ok) metrics.add("service.failures");
                 }
                 done(ok);
               });
  };
}

}  // namespace

TrialResult run_trial(const TrialConfig& config) {
  // The schedule derives from the trial seed through its own stream, fully
  // decoupled from the simulation's randomness.
  return run_trial(config, net::FaultPlan{});
}

TrialResult drive_trial(const TrialConfig& config, const TrialKind& kind) {
  std::vector<std::unique_ptr<RecordedClient>> clients;
  int remaining = config.clients;
  for (int c = 0; c < config.clients; ++c) {
    auto client = kind.client(
        {.index = c, .ops = config.ops_per_client, .gap = kOpGap,
         .append_ratio = config.append_ratio},
        Rng(config.seed).fork(0xc1a0 + static_cast<std::uint64_t>(c)));
    client->on_done = [&kind, &remaining] {
      if (--remaining == 0) kind.kernel.stop();
    };
    client->start(kind.first_op + kind.stagger * c);
    clients.push_back(std::move(client));
  }
  kind.kernel.run_until(kind.deadline);
  const bool all_done = remaining == 0;
  kind.settle();

  TrialResult result;
  result.plan = kind.plan;
  result.last_fault_end = kind.plan.last_effect_end();
  TrialObservation& obs = result.observation;
  obs.recovery_bound = config.recovery_bound;
  obs.all_clients_done = all_done;
  obs.last_fault_end = result.last_fault_end;
  SimTime finished = all_done ? kTimeZero : kind.deadline;
  for (const auto& client : clients) {
    const auto& h = client->history();
    obs.history.insert(obs.history.end(), h.begin(), h.end());
    result.completed_ops += static_cast<std::uint64_t>(client->completed());
    finished = std::max(finished, client->last_completed_at());
  }
  obs.finished_at = result.finished_at = finished;
  result.recovery_ms =
      finished > result.last_fault_end ? to_usec(finished - result.last_fault_end) / 1000.0
                                       : 0.0;
  if (config.record_spans) {
    const obs::Tracer& tracer = kind.kernel.tracer();
    result.spans_recorded = tracer.spans_recorded();
    result.spans_dropped = tracer.spans_dropped();
    result.flight_recording = obs::to_chrome_trace(tracer);
  }
  return result;
}

TrialResult run_trial(const TrialConfig& config, const net::FaultPlan& plan) {
  if (config.shards > 1) return run_shard_trial(config, plan);

  // Filled by the replicator hooks below; incarnations are per replica,
  // bumped per rebuild.
  std::vector<TrialObservation::CheckpointEvent> checkpoints;
  std::vector<std::uint64_t> incarnations(static_cast<std::size_t>(config.replicas), 0);

  harness::ScenarioConfig sc;
  sc.seed = config.seed;
  sc.clients = config.clients;
  sc.replicas = config.replicas;
  sc.max_replicas = config.replicas;
  sc.style = config.style;
  sc.checkpoint_interval = config.checkpoint_interval;
  sc.checkpoint_every_requests = config.checkpoint_every_requests;
  sc.checkpoint_anchor_interval = config.checkpoint_anchor_interval;
  sc.auto_recover = true;
  sc.skip_reply_dedup = config.inject_dedup_bug;
  sc.tracing = config.record_spans;
  sc.health = config.health;
  sc.make_servant = [](int) { return std::make_unique<app::KvStoreServant>(); };
  sc.on_replicator_created = [&](int index, replication::Replicator& rep) {
    const std::uint64_t incarnation = incarnations[static_cast<std::size_t>(index)]++;
    rep.set_on_checkpoint([&checkpoints, index, incarnation](std::uint64_t id) {
      checkpoints.push_back({index, incarnation, id});
    });
  };

  harness::Scenario scenario(sc);

  if (plan.empty() && config.faults.total_actions() > 0) {
    Rng plan_rng = Rng(config.seed).fork(0xfa017);
    scenario.fault_plan() = generate_schedule(plan_rng, config.faults, scenario);
  } else {
    scenario.fault_plan() = plan;
  }
  const net::FaultPlan& active_plan = scenario.fault_plan();
  scenario.arm_faults();

  TrialResult result = drive_trial(
      config,
      {.kernel = scenario.kernel(),
       .plan = active_plan,
       .deadline = std::max(kTrialHardDeadline,
                            active_plan.last_effect_end() + config.recovery_bound + sec(2)),
       .first_op = msec(250),
       .stagger = usec(125),
       .client =
           [&scenario](RecordedClient::Config rc, Rng rng) {
             rc.key_prefix = "kv:c" + std::to_string(rc.index) + ":";
             rc.key_space = 8;
             orb::ClientOrb& orb = scenario.client_orb(rc.index);
             return std::make_unique<RecordedClient>(orb.process(), std::move(rc), rng,
                                                     kv_sender(scenario, orb));
           },
       .settle =
           [&] {
             if (config.health) {
               // The detection oracle judges every scheduled fault, so each
               // one must actually strike while the health plane is
               // watching: when the workload finishes early, keep the
               // simulation alive through the last fault effect plus the
               // detection bound instead of stopping with late faults still
               // pending.
               scenario.kernel().run_until(active_plan.last_effect_end() +
                                           config.detection_bound + msec(200));
             }
             scenario.drain(msec(500));  // let replies, checkpoints and joins settle
           }});

  TrialObservation& obs = result.observation;
  obs.expected_lost = permanently_lost(active_plan, scenario);
  obs.checkpoints = std::move(checkpoints);
  for (int r = 0; r < config.replicas; ++r) {
    TrialObservation::ReplicaState rs;
    rs.index = r;
    auto& rep = scenario.replicator(r);
    rs.live = scenario.replica_process(r).alive() && !rep.stopped();
    rs.initialized = rep.initialized();
    rs.responder = rs.live && rep.is_responder();
    if (const auto& view = rep.current_view()) {
      rs.view_id = view->view_id;
      for (const auto& member : view->members) rs.view_members.push_back(member.process);
    }
    auto* kv = dynamic_cast<app::KvStoreServant*>(&scenario.app(r));
    VDEP_ASSERT_MSG(kv != nullptr, "chaos trials replicate the KV store");
    for (int c = 0; c < config.clients; ++c) {
      const std::string key = client_log_key(c);
      if (auto value = kv->lookup(key)) rs.logs[key] = *value;
    }
    obs.replicas.push_back(std::move(rs));
  }

  result.verdict = check_all(obs);
  if (config.health) {
    HealthObservation hobs;
    hobs.enabled = true;
    hobs.fault_free = active_plan.empty();
    hobs.detection_bound = config.detection_bound;
    hobs.events = scenario.health().events();
    hobs.faults = active_plan.actions();
    result.verdict.merge(check_detection(hobs));
    result.health_observation = std::move(hobs);
  }
  return result;
}

TrialConfig campaign_trial_config(const CampaignConfig& config, int index) {
  TrialConfig trial = config.base;
  trial.seed = mix_seed(config.seed, static_cast<std::uint64_t>(index));
  const auto i = static_cast<std::size_t>(index);
  trial.style = config.styles[i % config.styles.size()];
  trial.replicas = config.replica_counts[(i / config.styles.size()) %
                                         config.replica_counts.size()];
  trial.checkpoint_every_requests =
      config.checkpoint_frequencies[(i / (config.styles.size() *
                                          config.replica_counts.size())) %
                                    config.checkpoint_frequencies.size()];
  trial.checkpoint_anchor_interval =
      config.anchor_intervals[(i / (config.styles.size() *
                                    config.replica_counts.size() *
                                    config.checkpoint_frequencies.size())) %
                              config.anchor_intervals.size()];
  trial.shards =
      config.shard_counts[(i / (config.styles.size() *
                                config.replica_counts.size() *
                                config.checkpoint_frequencies.size() *
                                config.anchor_intervals.size())) %
                          config.shard_counts.size()];
  return trial;
}

namespace {

// Everything one trial produces, computed without touching campaign state —
// the unit of work a fleet worker executes. The failing-trial span replay
// happens here too (it is deterministic per trial), so the expensive part of
// a campaign is embarrassingly parallel and the merge below is cheap.
struct ExecutedTrial {
  TrialConfig config;
  TrialResult result;
  std::string failure_recording;  // span replay, failing trials only
};

ExecutedTrial execute_campaign_trial(const CampaignConfig& config, int index) {
  ExecutedTrial out;
  out.config = campaign_trial_config(config, index);
  out.result = run_trial(out.config);
  if (!out.result.pass()) {
    // Post-mortem: replay the exact failing trial with span recording on.
    // Determinism guarantees the replay reproduces the failure, so the
    // flight recording shows the actual causal history behind the verdict.
    TrialConfig replay_config = out.config;
    replay_config.record_spans = true;
    out.failure_recording = run_trial(replay_config, out.result.plan).flight_recording;
  }
  return out;
}

// Folds one finished trial into the campaign aggregate. Must be called in
// trial-index order: the metrics registry, failure list and recovery series
// are order-sensitive, and index order is what makes the parallel fleet's
// output byte-identical to the serial run's.
void merge_trial(
    CampaignResult& result, int index, const ExecutedTrial& executed,
    const std::function<void(int, const TrialConfig&, const TrialResult&)>& on_trial) {
  const TrialConfig& trial_config = executed.config;
  const TrialResult& trial = executed.result;

  ++result.trials;
  result.metrics.add("chaos.trials");
  const std::string style = replication::style_code(trial_config.style);
  if (trial.pass()) {
    ++result.passed;
    result.metrics.add("chaos.pass");
    result.metrics.add("chaos.pass." + style);
  } else {
    result.metrics.add("chaos.fail");
    result.metrics.add("chaos.fail." + style);
    result.failures.push_back({index, trial_config, trial.plan,
                               trial.verdict.failures, executed.failure_recording});
  }
  if (trial_config.shards > 1) {
    result.metrics.add("chaos.shard.trials");
    result.metrics.observe(
        "chaos.shard.migrations",
        static_cast<double>(trial.shard_observation.migrations_committed));
    result.metrics.observe(
        "chaos.shard.final_epoch",
        static_cast<double>(trial.shard_observation.final_map.epoch()));
  }
  if (trial_config.health) {
    // Per-fault detection latency distribution: the campaign's p50/p99
    // detection figures read straight off this metric.
    for (const auto& rec : match_detections(trial.health_observation)) {
      if (rec.detected) {
        result.metrics.observe("chaos.detection_ms", rec.latency_ms);
      } else {
        result.metrics.add("chaos.detection_missed");
      }
    }
    result.metrics.add(
        "chaos.health_events",
        static_cast<std::uint64_t>(trial.health_observation.events.size()));
  }
  result.metrics.observe("chaos.recovery_ms", trial.recovery_ms);
  result.metrics.observe("chaos.completed_ops",
                         static_cast<double>(trial.completed_ops));
  if (trial_config.record_spans) {
    result.metrics.observe("chaos.spans_per_trial",
                           static_cast<double>(trial.spans_recorded));
    result.metrics.add("chaos.spans_dropped", trial.spans_dropped);
  }
  result.recovery_series.record(SimTime{index}, trial.recovery_ms);

  if (on_trial) on_trial(index, trial_config, trial);
}

}  // namespace

CampaignResult run_campaign(
    const CampaignConfig& config,
    const std::function<void(int, const TrialConfig&, const TrialResult&)>& on_trial) {
  CampaignResult result;
  const int workers = std::min(std::max(config.workers, 1), std::max(config.trials, 1));

  if (workers == 1) {
    for (int i = 0; i < config.trials; ++i) {
      merge_trial(result, i, execute_campaign_trial(config, i), on_trial);
    }
  } else {
    // Trial fleet: every trial is reproducible from (campaign seed, index)
    // with its own isolated Kernel, so trials run as independent pool tasks
    // writing pre-assigned slots. The driver commits finished slots in index
    // order — streaming, so memory is bounded by the fleet's out-of-order
    // window, and on_trial still observes the serial sequence.
    sim::parallel::StealPool pool(workers);
    const auto n = static_cast<std::size_t>(config.trials);
    std::vector<std::unique_ptr<ExecutedTrial>> slots(n);
    std::vector<std::unique_ptr<std::atomic<bool>>> ready;
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ready.push_back(std::make_unique<std::atomic<bool>>(false));
    }
    for (int i = 0; i < config.trials; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      pool.submit([&config, &slots, &ready, i, slot] {
        slots[slot] = std::make_unique<ExecutedTrial>(execute_campaign_trial(config, i));
        ready[slot]->store(true, std::memory_order_release);
      });
    }
    for (int i = 0; i < config.trials; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      while (!ready[slot]->load(std::memory_order_acquire)) {
        // Help run trials while waiting; once nothing is claimable the
        // remaining trials are mid-execution on workers — back off briefly.
        if (!pool.try_run_one()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      merge_trial(result, i, *slots[slot], on_trial);
      slots[slot].reset();
    }
  }

  result.metrics.set_gauge("chaos.pass_rate",
                           result.trials == 0
                               ? 1.0
                               : static_cast<double>(result.passed) / result.trials);
  return result;
}

std::string to_json(const CampaignConfig& config, const CampaignResult& result) {
  char buf[256];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf), "  \"seed\": %llu,\n",
                static_cast<unsigned long long>(config.seed));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"trials\": %d,\n", result.trials);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"passed\": %d,\n", result.passed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"failed\": %d,\n", result.trials - result.passed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"pass_rate\": %.4f,\n",
                result.metrics.gauge("chaos.pass_rate").value_or(0.0));
  out += buf;
  if (const auto* rec = result.metrics.distribution("chaos.recovery_ms")) {
    std::snprintf(buf, sizeof(buf),
                  "  \"recovery_ms\": {\"mean\": %.3f, \"stddev\": %.3f, "
                  "\"min\": %.3f, \"max\": %.3f},\n",
                  rec->mean(), rec->stddev(), rec->min(), rec->max());
    out += buf;
  }
  if (const auto* ops = result.metrics.distribution("chaos.completed_ops")) {
    std::snprintf(buf, sizeof(buf),
                  "  \"completed_ops\": {\"mean\": %.1f, \"total\": %.0f},\n",
                  ops->mean(), ops->sum());
    out += buf;
  }
  out += "  \"per_style\": {";
  bool first = true;
  for (auto style : config.styles) {
    const std::string code = replication::style_code(style);
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": {\"pass\": %llu, \"fail\": %llu}",
                  first ? "" : ",", code.c_str(),
                  static_cast<unsigned long long>(
                      result.metrics.counter("chaos.pass." + code)),
                  static_cast<unsigned long long>(
                      result.metrics.counter("chaos.fail." + code)));
    out += buf;
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace vdep::chaos
