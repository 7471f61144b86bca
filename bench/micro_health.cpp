// Micro-benchmarks of the live health plane (google-benchmark).
//
// Two questions, answered in real (not simulated) time:
//  1. What do the health-plane primitives cost?  BM_PhiHeartbeat /
//     BM_PhiQuery price one heartbeat observation and one suspicion query
//     (both run on every phi tick for every link); BM_WindowCut prices one
//     SLO's window cut over a realistic registry; BM_SloEvaluate prices one
//     SLO evaluation over its windows.
//  2. What does the health plane do to an experiment?  BM_ScenarioHealth{Off,On}
//     runs the same seeded closed-loop replicated scenario both ways; the
//     simulated results are identical (the monitor only observes), so the
//     delta is the full health-plane cost: per-request SLO metric feeds plus
//     all SLO window cuts, phi ticks and SLO evaluations. bench/run_bench.sh
//     records the pair into BENCH_obs.json next to the tracer costs.
#include <benchmark/benchmark.h>

#include "harness/scenario.hpp"
#include "monitor/health/phi_accrual.hpp"
#include "monitor/health/slo.hpp"
#include "monitor/metrics.hpp"
#include "util/time.hpp"

using namespace vdep;

namespace {

void BM_PhiHeartbeat(benchmark::State& state) {
  monitor::health::PhiAccrualDetector detector;
  SimTime now = kTimeZero;
  for (auto _ : state) {
    now += msec(20);
    detector.heartbeat(now);
    benchmark::DoNotOptimize(detector);
  }
}
BENCHMARK(BM_PhiHeartbeat);

void BM_PhiQuery(benchmark::State& state) {
  monitor::health::PhiAccrualDetector detector;
  SimTime now = kTimeZero;
  for (int i = 0; i < 64; ++i) {
    now += msec(20);
    detector.heartbeat(now);
  }
  SimTime query = now;
  for (auto _ : state) {
    query += usec(1);
    benchmark::DoNotOptimize(detector.phi(query));
  }
}
BENCHMARK(BM_PhiQuery);

monitor::health::SloSpec service_slo() {
  monitor::health::SloSpec spec;
  spec.name = "service";
  spec.latency_metric = "service.latency_us";
  spec.request_counter = "service.requests";
  return spec;
}

// One SLO window cut over a registry shaped like a running scenario's: a
// handful of counters, gauges and latency distributions, with fresh samples
// between cuts so the SLO's latency histogram contributes a delta.
void BM_WindowCut(benchmark::State& state) {
  monitor::MetricsRegistry registry;
  monitor::health::SloTracker tracker(service_slo());
  std::uint64_t tick = 0;
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) {
      registry.add("service.requests");
      registry.observe("service.latency_us", 1000.0 + static_cast<double>(tick % 64));
      registry.observe("gcs.delivery_us", 180.0 + static_cast<double>(tick % 16));
      ++tick;
    }
    registry.set_gauge("health.phi_max", 0.3);
    tracker.cut(registry);
    benchmark::DoNotOptimize(tracker);
  }
}
BENCHMARK(BM_WindowCut);

void BM_SloEvaluate(benchmark::State& state) {
  monitor::MetricsRegistry registry;
  monitor::health::SloTracker tracker(service_slo());
  for (int w = 0; w < 64; ++w) {
    for (int i = 0; i < 50; ++i) {
      registry.add("service.requests");
      registry.observe("service.latency_us", 900.0 + i);
    }
    tracker.cut(registry);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.evaluate());
  }
}
BENCHMARK(BM_SloEvaluate);

// One full replicated closed-loop cycle (2 clients x 200 requests, 3 active
// replicas) — the end-to-end cost of an experiment with the health plane off
// vs on. The acceptance bar: the delta stays within a few percent.
void run_scenario(bool health, benchmark::State& state) {
  for (auto _ : state) {
    harness::ScenarioConfig config;
    config.seed = 42;
    config.clients = 2;
    config.replicas = 3;
    config.max_replicas = 3;
    config.style = replication::ReplicationStyle::kActive;
    config.health = health;
    harness::Scenario scenario(config);
    harness::Scenario::CycleConfig cycle;
    cycle.requests_per_client = 200;
    cycle.warmup_requests = 0;
    const auto result = scenario.run_closed_loop(cycle);
    benchmark::DoNotOptimize(result);
    if (health) {
      state.counters["windows"] = benchmark::Counter(
          static_cast<double>(scenario.health().windows_cut()));
      state.counters["events"] = benchmark::Counter(
          static_cast<double>(scenario.health().events().size()));
    }
  }
}

void BM_ScenarioHealthOff(benchmark::State& state) { run_scenario(false, state); }
BENCHMARK(BM_ScenarioHealthOff)->Unit(benchmark::kMillisecond);

void BM_ScenarioHealthOn(benchmark::State& state) { run_scenario(true, state); }
BENCHMARK(BM_ScenarioHealthOn)->Unit(benchmark::kMillisecond);

}  // namespace

// main provided by bench_main.cpp (build-type stamping + debug refusal).
