// Micro-benchmarks of incremental checkpointing (google-benchmark).
//
// Two levels, pinning the headline claim (>= 5x fewer checkpoint bytes at
// 1% dirty keys) into BENCH_checkpoint.json:
//  1. BM_KvDeltaCut — the application layer: cutting a dirty-set delta of a
//     4096-key store at a swept dirty percentage, vs. BM_KvFullSnapshot.
//     Counters report encoded sizes and the full/delta reduction factor.
//     BM_KvDeltaCutStoreSize cuts the same 40 dirty keys out of stores of
//     4096 and 65536 keys: a delta's wall cost follows the dirty set, so the
//     rows read alike, and a walk over the whole store shows as a 16x gap.
//  2. BM_CheckpointStream — the wire: a live 2-replica warm-passive group
//     runs the same seeded sparse-write checkpoint schedule with anchor
//     interval K; the counter is the primary's actual multicast checkpoint
//     bytes (encoded CheckpointMsg, headers and all). K=1 is the seed
//     protocol baseline, so the pair doubles as the full-anchor-path
//     regression guard.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>

#include "app/kv_store.hpp"
#include "harness/scenario.hpp"
#include "util/time.hpp"

using namespace vdep;

namespace {

constexpr int kKeys = 4096;
constexpr int kValueBytes = 64;

void seed_store(app::KvStoreServant& kv, int keys = kKeys) {
  for (int i = 0; i < keys; ++i) {
    (void)kv.invoke("put",
                    app::KvStoreServant::encode_put("key" + std::to_string(i),
                                                    std::string(kValueBytes, 'v')));
  }
}

void BM_KvFullSnapshot(benchmark::State& state) {
  app::KvStoreServant kv;
  seed_store(kv);
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes snapshot = kv.snapshot();
    bytes = snapshot.size();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_KvFullSnapshot);

// Times snapshot_delta over `dirty` keys rewritten (untimed) since the last
// cut of a `keys`-key store.
void run_delta_cuts(benchmark::State& state, int keys, int dirty) {
  app::KvStoreServant kv;
  seed_store(kv, keys);
  const std::size_t full_bytes = kv.snapshot().size();
  std::size_t delta_bytes = 0;
  int offset = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::uint64_t cut = kv.cut_epoch();
    for (int i = 0; i < dirty; ++i) {
      const int key = (offset + i * (keys / dirty)) % keys;
      (void)kv.invoke("put",
                      app::KvStoreServant::encode_put(
                          "key" + std::to_string(key), std::string(kValueBytes, 'w')));
    }
    ++offset;
    state.ResumeTiming();
    auto delta = kv.snapshot_delta(cut);
    if (!delta) {
      state.SkipWithError("delta unanswerable");
      break;
    }
    delta_bytes = delta->size();
    benchmark::DoNotOptimize(delta);
  }
  state.counters["full_bytes"] = static_cast<double>(full_bytes);
  state.counters["delta_bytes"] = static_cast<double>(delta_bytes);
  state.counters["reduction_x"] =
      delta_bytes == 0 ? 0.0
                       : static_cast<double>(full_bytes) / static_cast<double>(delta_bytes);
}

// Arg: percentage of keys dirtied between cuts (1 = the headline case).
void BM_KvDeltaCut(benchmark::State& state) {
  run_delta_cuts(state, kKeys,
                 std::max(1, kKeys * static_cast<int>(state.range(0)) / 100));
}
BENCHMARK(BM_KvDeltaCut)->Arg(1)->Arg(10)->Arg(50)->ArgName("dirty_pct");

// Arg: store size in keys, at 40 dirty keys per cut.
void BM_KvDeltaCutStoreSize(benchmark::State& state) {
  run_delta_cuts(state, static_cast<int>(state.range(0)), 40);
}
BENCHMARK(BM_KvDeltaCutStoreSize)->Arg(4096)->Arg(65536)->ArgName("keys");

// Arg: checkpoint_anchor_interval K. One iteration = one full scenario run:
// seed 256 keys, anchor, then 12 single-key-write checkpoint rounds. The
// schedule is identical for every K, so checkpoint_bytes compares directly.
void BM_CheckpointStream(benchmark::State& state) {
  const auto anchor_interval = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t bytes = 0;
  std::uint64_t cuts = 0;
  for (auto _ : state) {
    harness::ScenarioConfig config;
    config.clients = 1;
    config.replicas = 2;
    config.max_replicas = 2;
    config.style = replication::ReplicationStyle::kWarmPassive;
    config.checkpoint_anchor_interval = anchor_interval;
    config.checkpoint_interval = sec(600);  // cuts driven manually below
    config.checkpoint_every_requests = 1000000;
    config.make_servant = [](int) { return std::make_unique<app::KvStoreServant>(); };
    harness::Scenario scenario(config);
    scenario.kernel().run_until(msec(300));

    auto& kv = dynamic_cast<app::KvStoreServant&>(scenario.app(0));
    for (int i = 0; i < 256; ++i) {
      (void)kv.invoke("put",
                      app::KvStoreServant::encode_put("key" + std::to_string(i),
                                                      std::string(kValueBytes, 'v')));
    }
    scenario.replicator(0).take_checkpoint(/*force_full=*/true);
    scenario.drain();
    for (int round = 0; round < 12; ++round) {
      (void)kv.invoke("put", app::KvStoreServant::encode_put(
                                 "key" + std::to_string(round % 3),
                                 "round" + std::to_string(round)));
      scenario.replicator(0).take_checkpoint();
      scenario.drain();
    }
    bytes = scenario.replicator(0).checkpoint_bytes_sent();
    cuts = scenario.replicator(0).checkpoints_full_taken() +
           scenario.replicator(0).checkpoints_delta_taken();
    if (scenario.app(1).state_digest() != kv.state_digest()) {
      state.SkipWithError("backup diverged");
      break;
    }
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
  state.counters["checkpoints"] = static_cast<double>(cuts);
  state.counters["bytes_per_checkpoint"] =
      cuts == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(cuts);
}
BENCHMARK(BM_CheckpointStream)->Arg(1)->Arg(16)->ArgName("anchor_interval");

}  // namespace

// main provided by bench_main.cpp (build-type stamping + debug refusal).
