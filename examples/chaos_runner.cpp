// Chaos campaign runner: sweeps seeded fault-injection trials across the
// dependability design space (replication style x replica count x checkpoint
// frequency), judges every trial with the invariant oracles, and writes a
// JSON summary (BENCH_chaos.json when driven by bench/run_bench.sh).
//
// Every trial is reproducible from the campaign seed and its index alone,
// and the campaign output is byte-identical at any worker count:
//
//   examples/chaos_runner trials=200 seed=1 workers=8 out=BENCH_chaos.json
//
// On failure the minimal reproducer (after delta-debugging) is printed so it
// can be pasted into a regression test.
#include <cstdio>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/shrink.hpp"
#include "obs/export.hpp"
#include "util/config.hpp"

using namespace vdep;

namespace {

void write_json(const std::string& path, const chaos::CampaignConfig& config,
                const chaos::CampaignResult& result) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  const std::string json = chaos::to_json(config, result);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);

  chaos::CampaignConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  config.trials = static_cast<int>(cfg.get_int("trials", 200));
  config.base.clients = static_cast<int>(cfg.get_int("clients", 2));
  config.base.ops_per_client = static_cast<int>(cfg.get_int("ops", 100));
  config.workers = static_cast<int>(cfg.get_int("workers", 1));
  const bool shrink_failures = cfg.get_bool("shrink", true);
  const std::string out = cfg.get_str("out", "");

  std::printf("chaos campaign: %d trials, seed %llu, %d worker%s, 5 styles x "
              "replicas {2,3} x checkpoint-every {10,25}\n\n",
              config.trials, static_cast<unsigned long long>(config.seed),
              config.workers, config.workers == 1 ? "" : "s");

  const auto result = chaos::run_campaign(
      config, [](int index, const chaos::TrialConfig& trial,
                 const chaos::TrialResult& r) {
        if ((index + 1) % 20 == 0 || !r.pass()) {
          std::printf("  trial %3d  style=%s replicas=%d cpfreq=%u faults=%zu  %s\n",
                      index, replication::style_code(trial.style).c_str(),
                      trial.replicas, trial.checkpoint_every_requests,
                      r.plan.size(), r.pass() ? "PASS" : "FAIL");
        }
      });

  std::printf("\n%d/%d trials passed", result.passed, result.trials);
  if (const auto* rec = result.metrics.distribution("chaos.recovery_ms")) {
    std::printf("; recovery after last fault: mean %.0f ms, max %.0f ms",
                rec->mean(), rec->max());
  }
  std::printf("\n");

  for (const auto& failure : result.failures) {
    std::printf("\nFAIL trial %d (style=%s replicas=%d):\n", failure.trial_index,
                replication::style_code(failure.config.style).c_str(),
                failure.config.replicas);
    for (const auto& reason : failure.failures) {
      std::printf("  oracle: %s\n", reason.c_str());
    }
    std::printf("schedule:\n%s", failure.plan.to_string().c_str());
    if (!failure.flight_recording.empty()) {
      const std::string path =
          "chaos_trial_" + std::to_string(failure.trial_index) + ".trace.json";
      if (obs::write_file(path, failure.flight_recording)) {
        std::printf("flight recording: %s (load in chrome://tracing)\n",
                    path.c_str());
      }
    }
    if (shrink_failures) {
      // Re-use the fleet width for the shrinker's candidate replays (each
      // probe is an independent kernel, same as a campaign trial).
      const auto shrunk = chaos::shrink_schedule(failure.config, failure.plan, {},
                                                 config.workers);
      std::printf("minimal reproducer (%zu actions, %d probes):\n%s",
                  shrunk.minimal.size(), shrunk.probes,
                  shrunk.minimal.to_string().c_str());
    }
  }

  if (!out.empty()) write_json(out, config, result);
  return result.all_passed() ? 0 : 1;
}
