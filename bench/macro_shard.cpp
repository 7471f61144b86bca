// Macro throughput benchmark of the sharded scale-out path
// (BENCH_shard.json) — the Fig. 8 question asked of partitions instead of a
// knob: how far does one dependable service scale when its key space is
// split across many replica groups?
//
// The large configuration drives 10,000 simulated clients, each with its own
// ORB + coordinator + shard router, against 32 shards (one replica group
// each, plus the replicated directory). Every request takes the full
// production path: hash -> cached map -> coordinator -> AGREED multicast ->
// servant fence check -> KV apply. `requests_per_sec` (wall-clock rate of
// completed routed requests) and `events_per_sec` are the gated counters;
// scripts/ci.sh fails when either regresses more than the allowance in
// scripts/bench_gates.json. `sim_events` (kernel events per run) is not
// gated: it is fixed by the seed and moves only when the model's event
// structure does.
#include <benchmark/benchmark.h>

#include <memory>

#include "shard/cluster.hpp"
#include "sim/kernel.hpp"

using namespace vdep;

namespace {

void BM_MacroShardFleet(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));
  const bool fleet_paced = state.range(2) != 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  double sim_rps = 0.0;
  for (auto _ : state) {
    state.PauseTiming();  // fleet construction is not the routed hot path
    shard::ShardedClusterConfig config;
    config.seed = 42;
    config.shards = shards;
    config.clients = clients;
    config.client_hosts = 8;
    config.server_hosts = 16;
    config.default_policy.replicas = 2;
    auto cluster = std::make_unique<shard::ShardedCluster>(config);
    state.ResumeTiming();

    shard::ShardedCluster::WorkloadConfig wc;
    wc.ops_per_client = 5;
    wc.key_space = 4096;
    if (fleet_paced) {
      // Fleet mode: many low-rate clients instead of closed-loop saturation.
      // 10k clients hammering back-to-back would sit far past the AGREED
      // ordering capacity knee and measure retransmission collapse, not
      // scale-out; pacing keeps offered load under capacity so every op
      // completes and the counters track real routed work.
      wc.gap = sec(8);
      wc.stagger = msec(4);
    }
    const auto result = cluster->run_workload(wc);
    events += cluster->kernel().events_executed();
    completed += result.completed;
    sim_rps = result.throughput_rps;

    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(completed), benchmark::Counter::kIsRate);
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(completed) / static_cast<double>(state.iterations()));
  // Kernel events one fleet run executes: deterministic (fixed seed), so a
  // change in events_per_sec can be split into work per event and events per
  // run.
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  state.counters["sim_throughput_rps"] = benchmark::Counter(sim_rps);
}

// Args: {shards, clients, fleet_paced}. The small closed-loop point keeps the
// series cheap to watch locally; the large fleet-paced one is the recorded
// scale-out baseline (10k clients, 32 shards, every op completing).
BENCHMARK(BM_MacroShardFleet)
    ->Args({8, 1000, 0})
    ->Args({32, 10000, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
