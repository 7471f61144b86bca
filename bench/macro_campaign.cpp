// Trial-fleet throughput benchmark (BENCH_parallel.json).
//
// Measures chaos-campaign trials per wall second at 1, 4 and 8 workers —
// the headline number for the trial fleet (chaos/fleet.hpp). Every trial is
// a full isolated Kernel (scenario + schedule + oracles), so this is an
// honest end-to-end parallel-efficiency measurement, not a task-overhead
// micro.
//
// On a single-core CI machine the 4/8-worker rows will not beat the serial
// row (they mostly pay the fleet's thread overhead); the regression
// gate in scripts/bench_gates.json therefore keys on the serial row's
// trials_per_sec, while the multi-worker rows document scaling on the
// machine that recorded the baseline.
#include <benchmark/benchmark.h>

#include "chaos/campaign.hpp"

using namespace vdep;

namespace {

void BM_CampaignTrials(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t trials = 0;
  std::uint64_t passed = 0;
  for (auto _ : state) {
    chaos::CampaignConfig config;
    config.seed = 42;
    config.trials = 40;
    config.base.clients = 2;
    config.base.ops_per_client = 60;
    config.workers = workers;
    const chaos::CampaignResult result = chaos::run_campaign(config);
    trials += static_cast<std::uint64_t>(result.trials);
    passed += static_cast<std::uint64_t>(result.passed);
  }
  state.counters["trials_per_sec"] =
      benchmark::Counter(static_cast<double>(trials), benchmark::Counter::kIsRate);
  state.counters["pass_rate"] =
      benchmark::Counter(static_cast<double>(passed) / static_cast<double>(trials));
}
// UseRealTime: the fleet's work happens on worker threads, so the default
// main-thread CPU clock would grossly inflate the multi-worker rows;
// trials_per_sec must mean wall-clock trials per second.
BENCHMARK(BM_CampaignTrials)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// main provided by bench_main.cpp (build-type stamping + debug refusal).
