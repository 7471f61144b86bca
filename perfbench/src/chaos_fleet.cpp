// chaos_fleet: chaos::run_campaign on the StealPool trial fleet with
// min(4, nproc) workers, sweeping all 5 styles x {2, 3} replicas x
// checkpoint every {10, 25} requests x anchor interval {1, 4}, with the
// health plane on, append-heavy trial clients (append_ratio 0.7) and the
// seeded fault schedules. It is the only workload that runs sim/parallel,
// the chaos oracles, monitor/health, failover, state transfer and dirty
// delta checkpoints.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "app/kv_store.hpp"
#include "bench.hpp"
#include "chaos/campaign.hpp"
#include "harness/scenario.hpp"

namespace perfbench {
namespace {

using namespace vdep;

constexpr int kTrials = 160;  // four passes over the 40-point sweep
constexpr int kOpsPerClient = 300;
constexpr int kSetupRunsPerRep = 5;
constexpr SimTime kSloLimit = msec(50);
const char* const kStyles[] = {"A", "P", "C", "S", "H"};

chaos::CampaignConfig campaign_config(const Options& options, int workers, bool spans) {
  chaos::CampaignConfig config;
  config.seed = options.seed;
  config.trials = kTrials;
  config.base.clients = 2;
  config.base.ops_per_client = kOpsPerClient;
  config.base.append_ratio = 0.7;
  config.base.health = true;
  config.base.record_spans = spans;
  config.workers = workers;
  return config;
}

// What a campaign's trials report, folded in trial-index order.
struct Tally {
  std::uint64_t trials = 0;
  std::uint64_t passed = 0;
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t health_events = 0;
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t views = 0;
  std::vector<double> latencies_us;
  std::vector<double> recovery_ms;
  std::vector<double> detection_ms;
  std::vector<double> trial_wall_ms;
  std::map<std::string, std::vector<double>> style_wall_ms;

  void add(const chaos::TrialConfig& config, const chaos::TrialResult& r) {
    ++trials;
    if (r.pass()) ++passed;
    for (const auto& op : r.observation.history) {
      ++ops_issued;
      if (!op.ok || !op.completed_at) continue;
      ++ops_completed;
      const SimTime latency = *op.completed_at - op.issued_at;
      latencies_us.push_back(to_usec(latency));
      if (latency <= kSloLimit) ++slo_met;
    }
    recovery_ms.push_back(r.recovery_ms);
    for (const auto& d : chaos::match_detections(r.health_observation)) {
      if (d.detected) detection_ms.push_back(d.latency_ms);
    }
    health_events += r.health_observation.events.size();
    spans += r.spans_recorded;
    spans_dropped += r.spans_dropped;
    if (config.record_spans) {
      const std::string needle = "{\"name\":\"gcs.view\"";
      for (auto at = r.flight_recording.find(needle); at != std::string::npos;
           at = r.flight_recording.find(needle, at + 1)) {
        ++views;
      }
    }
  }
};

struct Campaign {
  chaos::CampaignResult result;
  Tally tally;
  double probe_s = 0.0;  // the machine probe's time just before the campaign
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  // the process's peak so far, read at the end
  std::string json;
};

// Runs one campaign; with `time_trials` (serial only) each trial's wall time
// is the gap between consecutive on_trial callbacks.
Campaign run(const chaos::CampaignConfig& config, bool time_trials) {
  Campaign c;
  const auto start = Clock::now();
  auto last = start;
  c.result = chaos::run_campaign(
      config, [&](int, const chaos::TrialConfig& trial, const chaos::TrialResult& r) {
        c.tally.add(trial, r);
        if (time_trials) {
          const auto now = Clock::now();
          const double ms = std::chrono::duration<double, std::milli>(now - last).count();
          last = now;
          c.tally.trial_wall_ms.push_back(ms);
          c.tally.style_wall_ms[replication::style_code(trial.style)].push_back(ms);
        }
      });
  c.wall_s = seconds_since(start);
  c.json = chaos::to_json(config, c.result);
  c.peak_rss_mb = peak_rss_mb();
  return c;
}

// The set-up every trial pays: build a trial-shaped scenario (KV servants,
// health plane, auto-recovery) and boot it to the first client op.
double trial_setup_s(const Options& options) {
  const auto start = Clock::now();
  harness::ScenarioConfig sc;
  sc.seed = options.seed;
  sc.clients = 2;
  sc.replicas = 3;
  sc.max_replicas = 3;
  sc.style = replication::ReplicationStyle::kWarmPassive;
  sc.auto_recover = true;
  sc.health = true;
  sc.make_servant = [](int) { return std::make_unique<app::KvStoreServant>(); };
  harness::Scenario scenario(sc);
  scenario.kernel().run_until(msec(250));
  return seconds_since(start);
}

}  // namespace

void run_chaos_fleet(const Options& options, Report& report) {
  // Each trial's kernel, network and replicators live inside run_campaign,
  // which hands back only results: those layers run here but are unmeasured.
  // Shard routing is not used.
  report.unmeasured_layers = {"sim",  "net",   "gcs", "orb",     "rep",
                              "ckpt", "shard", "app", "untagged"};
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const int workers = static_cast<int>(std::min(4u, cpus));

  std::vector<Campaign> reps;
  std::vector<double> setup;
  // A traced run leaves most of its budget to the two serial passes.
  const double budget = options.trace ? options.seconds * 0.25 : options.seconds;
  repeat_for(budget, [&](double probe) {
    for (int i = 0; i < kSetupRunsPerRep; ++i) {
      setup.push_back(normalised_s(trial_setup_s(options), probe));
    }
    reps.push_back(run(campaign_config(options, workers, false), false));
    reps.back().probe_s = probe;
  });
  const Campaign& first = reps.front();
  for (const auto& r : reps) {
    report.check(r.json == first.json, "chaos_fleet: a repetition diverged from the first");
  }
  report.check(first.result.all_passed(),
               "chaos_fleet: " + std::to_string(first.result.trials - first.result.passed) +
                   " trials failed an oracle");
  for (const auto& f : first.result.failures) {
    for (const auto& why : f.failures) {
      std::fprintf(stderr, "chaos_fleet: trial %d: %s\n", f.trial_index, why.c_str());
    }
  }

  const Tally& t = first.tally;
  std::vector<double> trials_rate, ops_rate, walls, probes;
  for (const auto& r : reps) {
    trials_rate.push_back(r.result.trials / normalised_s(r.wall_s, r.probe_s));
    ops_rate.push_back(static_cast<double>(r.tally.ops_completed) /
                       normalised_s(r.wall_s, r.probe_s));
    walls.push_back(r.wall_s);
    probes.push_back(r.probe_s);
  }
  report.attempted = t.trials * reps.size();
  report.failed = (t.trials - t.passed) * reps.size();
  report.digests["chaos_fleet.summary"] = hex64(fnv1a_str(first.json));

  report.set("setup_s", median(setup));
  report.set("sim_requests_per_norm_s", median(ops_rate));
  report.set("trials_per_norm_s", median(trials_rate));
  report.set("probe.wall_ms", median(probes) * 1000.0);
  report.set("peak_rss_mb", first.peak_rss_mb);  // see report_requests
  report.set("sim_latency_p50_ms", percentile(t.latencies_us, 50) / 1000.0);
  report.set("sim_latency_p99_ms", percentile(t.latencies_us, 99) / 1000.0);
  const double issued = static_cast<double>(t.ops_issued);
  report.set("sim_slo_met_ratio", ratio(static_cast<double>(t.slo_met), issued));
  report.set("ops_completed_ratio", ratio(static_cast<double>(t.ops_completed), issued));
  const double pass_ratio = ratio(static_cast<double>(t.passed), static_cast<double>(t.trials));
  const double recovery_p95 = percentile(t.recovery_ms, 95);
  const double detection_p95 = percentile(t.detection_ms, 95);
  report.set("chaos.pass_ratio", pass_ratio);
  report.set("chaos.recovery_ms_p95", recovery_p95);
  report.set("health.detection_ms_p95", detection_p95);
  report.set("health.events_per_trial",
             ratio(static_cast<double>(t.health_events), static_cast<double>(t.trials)));

  char line[320];
  std::snprintf(line, sizeof(line),
                "chaos_fleet: %llu trials x %zu repetitions on %d workers, %llu/%llu ops "
                "completed per campaign, %zu detections",
                static_cast<unsigned long long>(t.trials), reps.size(), workers,
                static_cast<unsigned long long>(t.ops_completed),
                static_cast<unsigned long long>(t.ops_issued), t.detection_ms.size());
  report.note(line);
  std::snprintf(line, sizeof(line),
                "wall clock, not normalised: %.2f trials/s, machine probe %.3f ms",
                t.trials / median(walls), median(probes) * 1000.0);
  report.note(line);
  std::snprintf(line, sizeof(line),
                "end-to-end, full list: chaos_pass_ratio=%.4f sim_recovery_ms_p95=%.3f "
                "detection_ms_p95=%.3f sim_slo_miss_ratio=%.6f ops_failed_ratio=%.6f "
                "sim_wire_bytes_per_request=n/a",
                pass_ratio, recovery_p95, detection_p95,
                1.0 - ratio(static_cast<double>(t.slo_met), issued),
                1.0 - ratio(static_cast<double>(t.ops_completed), issued));
  report.note(line);
  if (!options.trace) return;

  // Serial untraced pass: per-trial wall times and the parallel efficiency.
  const Campaign serial = run(campaign_config(options, 1, false), true);
  report.check(serial.json == first.json, "chaos_fleet: serial pass differs");
  // The serial pass with span recording must reproduce the parallel
  // campaign's summary byte for byte.
  const Campaign traced = run(campaign_config(options, 1, true), false);
  report.check(traced.json == first.json,
               "chaos_fleet: parallel campaign differs from the serial traced pass");
  report.check(traced.tally.spans_dropped == 0,
               "chaos_fleet: tracer dropped " + std::to_string(traced.tally.spans_dropped) +
                   " spans");

  const Tally& s = serial.tally;
  double trial_sum_ms = 0.0;
  for (double ms : s.trial_wall_ms) trial_sum_ms += ms;
  report.set("parallel.efficiency",
             trial_sum_ms / 1000.0 / (workers * median(walls)));
  report.set("chaos.trial_wall_ms_p50", percentile(s.trial_wall_ms, 50));
  report.set("chaos.trial_wall_ms_p95", percentile(s.trial_wall_ms, 95));
  for (const char* style : kStyles) {
    const auto it = s.style_wall_ms.find(style);
    report.set(cat("chaos.trial_wall_ms.", style),
               it == s.style_wall_ms.end() ? 0.0 : median(it->second));
  }
  report.set("gcs.views", ratio(static_cast<double>(traced.tally.views),
                                static_cast<double>(traced.tally.trials)));
  report.set("obs.tracing_overhead_ratio", traced.wall_s / serial.wall_s - 1.0);
  report.set("obs.spans_per_request", ratio(static_cast<double>(traced.tally.spans),
                                            static_cast<double>(traced.tally.ops_completed)));
}

}  // namespace perfbench
