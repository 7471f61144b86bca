// Health dashboard: watch the live health plane close the adaptation loop.
//
// Default mode runs a warm-passive replicated service with the health plane
// on and a HealthThresholdPolicy adaptation manager per replica, injects a
// primary crash and a short partition, and renders a periodic dashboard:
// per-link phi suspicion, per-replica state, service SLO attainment/burn,
// and the current replication style. Every health event (suspect/clear,
// SLO breach/recover) prints live as it is emitted. The policy reacts to
// suspicion by switching the group to active replication, then eases back
// once the plane clears — the paper's Fig. 6 loop driven by failure
// detection instead of load.
//
// Chaos mode (chaos=1) runs one seeded chaos trial with the health plane
// and writes the canonical HealthEvent stream to `events`; the stream is
// byte-deterministic in the seed, which the CI determinism gate checks by
// running this twice and diffing the files.
//
// Run:  ./health_dashboard [seed=7] [requests=4000] [events=]
//       ./health_dashboard chaos=1 [seed=7] [events=health_events.txt]
#include <cstdio>
#include <string>

#include "chaos/campaign.hpp"
#include "harness/scenario.hpp"
#include "obs/export.hpp"
#include "util/config.hpp"

using namespace vdep;

namespace {

int run_chaos_mode(const Config& cfg) {
  chaos::TrialConfig tc;
  tc.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  tc.health = true;
  const chaos::TrialResult result = chaos::run_trial(tc);

  std::printf("health_dashboard — chaos trial (seed %llu)\n",
              static_cast<unsigned long long>(tc.seed));
  std::printf("  verdict              %s\n", result.pass() ? "PASS" : "FAIL");
  std::printf("  completed ops        %llu\n",
              static_cast<unsigned long long>(result.completed_ops));
  std::printf("  health events        %zu\n", result.health_observation.events.size());
  for (const auto& rec : chaos::match_detections(result.health_observation)) {
    std::printf("  detection %7.1f ms  %s\n", rec.detected ? rec.latency_ms : -1.0,
                rec.fault.c_str());
  }
  if (!result.pass()) std::printf("%s", result.verdict.to_string().c_str());

  const std::string events_path = cfg.get_str("events", "health_events.txt");
  const std::string rendered =
      monitor::health::render_text(result.health_observation.events);
  if (!obs::write_file(events_path, rendered)) {
    std::fprintf(stderr, "failed to write %s\n", events_path.c_str());
    return 1;
  }
  std::printf("  wrote %s (%zu bytes)\n", events_path.c_str(), rendered.size());
  return result.pass() ? 0 : 1;
}

void print_dashboard(harness::Scenario& scenario) {
  auto& health = scenario.health();
  const double t_ms = to_msec(scenario.kernel().now());
  const std::string style = replication::to_string(scenario.group().style());
  std::printf("[%8.1f ms] style=%-12s phi_max=%6.2f suspected=%zu/%zu links\n",
              t_ms, style.c_str(), health.max_phi(),
              health.suspected_replicas(), health.suspected_links());
  for (const auto& [name, slo] : health.slo_status()) {
    std::printf("              slo %-8s p99=%8.0f us  avail=%.4f  burn=%5.2f  %s\n",
                name.c_str(), slo.p99_us, slo.availability, slo.burn_rate,
                slo.met() ? "OK" : "BREACH");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  if (cfg.get_int("chaos", 0) != 0) return run_chaos_mode(cfg);

  harness::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.auto_recover = true;
  config.health_adaptation = true;
  harness::Scenario scenario(config);

  // Fault script: the primary dies (and auto-recovers), then a partition
  // briefly isolates the last replica's host.
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));
  scenario.fault_plan().restart_process(msec(1300), scenario.replica_pid(0));
  scenario.fault_plan().partition_window(
      msec(2500), msec(2800), {scenario.replica_host(2)},
      {scenario.replica_host(0), scenario.replica_host(1)});

  // Live alert feed.
  scenario.health().stream().set_on_event([](const monitor::health::HealthEvent& e) {
    std::printf("  ! #%04llu [%8.1f ms] %-24s %s (value=%.2f threshold=%.2f)\n",
                static_cast<unsigned long long>(e.seq), to_msec(e.at),
                monitor::health::to_string(e.kind), e.subject.c_str(), e.value,
                e.threshold);
  });

  // Periodic dashboard frames.
  const SimTime frame = msec(500);
  std::function<void()> tick = [&] {
    print_dashboard(scenario);
    scenario.kernel().post(frame, tick);
  };
  scenario.kernel().post(frame, tick);

  std::printf("health_dashboard — crash + partition under a live health plane\n");
  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = static_cast<int>(cfg.get_int("requests", 4000));
  const harness::ExperimentResult result = scenario.run_closed_loop(cycle);
  scenario.drain();

  auto& health = scenario.health();
  std::printf("--- final ---\n");
  print_dashboard(scenario);
  std::printf("  requests completed   %llu (p99 %.0f us)\n",
              static_cast<unsigned long long>(result.completed),
              result.p99_latency_us);
  std::printf("  health events        %zu (windows cut %llu)\n",
              health.events().size(),
              static_cast<unsigned long long>(health.series().windows_cut()));

  const std::string events_path = cfg.get_str("events", "");
  if (!events_path.empty()) {
    const std::string rendered = monitor::health::render_text(health.events());
    if (!obs::write_file(events_path, rendered)) {
      std::fprintf(stderr, "failed to write %s\n", events_path.c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu bytes)\n", events_path.c_str(), rendered.size());
  }
  return 0;
}
