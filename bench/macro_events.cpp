// Macro events/sec benchmark of the simulation kernel (BENCH_kernel.json).
//
// The micro benches time single components; this one answers the question
// the ROADMAP actually asks — how many *simulated events per wall second*
// can the kernel push through a whole replicated scenario? Every layer is on
// the path: client ORBs, coordinators, daemons, the reliable link, ordered
// delivery, replicators and servant execution, all as callbacks on one
// sim::Kernel.
//
// `events_per_sec` (wall-clock rate of kernel events executed) is the
// headline number; scripts/ci.sh fails when it regresses more than 20%
// against the recorded BENCH_kernel.json baseline.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "harness/scenario.hpp"
#include "sim/kernel.hpp"

using namespace vdep;

namespace {

void run_macro_scenario(benchmark::State& state, replication::ReplicationStyle style) {
  const int clients = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    state.PauseTiming();  // scenario construction/destruction is not the kernel
    harness::ScenarioConfig config;
    config.seed = 42;
    config.clients = clients;
    config.replicas = 3;
    config.max_replicas = 3;
    config.style = style;
    auto scenario = std::make_unique<harness::Scenario>(config);
    state.ResumeTiming();

    harness::Scenario::CycleConfig cycle;
    cycle.requests_per_client = 300;
    cycle.warmup_requests = 30;
    auto result = scenario->run_closed_loop(cycle);
    events += scenario->kernel().events_executed();
    completed += result.completed;

    state.PauseTiming();
    scenario.reset();
    state.ResumeTiming();
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(completed) / static_cast<double>(state.iterations()));
}

void BM_MacroActiveEventsPerSec(benchmark::State& state) {
  run_macro_scenario(state, replication::ReplicationStyle::kActive);
}
BENCHMARK(BM_MacroActiveEventsPerSec)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_MacroWarmPassiveEventsPerSec(benchmark::State& state) {
  run_macro_scenario(state, replication::ReplicationStyle::kWarmPassive);
}
BENCHMARK(BM_MacroWarmPassiveEventsPerSec)->Arg(8)->Unit(benchmark::kMillisecond);

// The raw kernel ceiling with no protocol on top: a self-rescheduling event
// storm (64 actors, each re-posting itself) — the schedule+pop+dispatch cost
// a scenario event pays before any protocol work happens.
void BM_MacroKernelChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Kernel kernel(7);
    struct Actor {
      sim::Kernel* kernel;
      SimTime period;
      std::uint64_t remaining;
      void fire() {
        if (remaining-- == 0) return;
        kernel->post(period, [this] { fire(); });
      }
    };
    std::vector<Actor> actors;
    constexpr int kActors = 64;
    constexpr std::uint64_t kRounds = 4000;
    actors.reserve(kActors);
    for (int i = 0; i < kActors; ++i) {
      actors.push_back(Actor{&kernel, usec(3 + i % 17), kRounds});
    }
    state.ResumeTiming();

    for (auto& a : actors) a.fire();
    kernel.run();
    events += kernel.events_executed();
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MacroKernelChurn)->Unit(benchmark::kMillisecond);

}  // namespace

// main provided by bench_main.cpp (build-type stamping + debug refusal).
