// Figure 4: overhead of the replicator for a remote client-server
// application. Six configurations, means with jitter error bars:
//   1. no interceptor (plain TCP baseline)
//   2. client intercepted (system calls hooked, messages unmodified)
//   3. server intercepted
//   4. server & client intercepted
//   5. warm passive replication, 1 replica
//   6. active replication, 1 replica
//
// Expected shape (paper): interception alone adds little; the replication
// mechanisms (group communication underneath) roughly double the round-trip
// and add jitter, warm passive jitteriest of all (checkpoint blackouts).
//
// Usage: fig4_overhead [requests=10000] [seed=42]
#include <cstdio>

#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "util/config.hpp"

using namespace vdep;

namespace {

struct Mode {
  const char* label;
  bool replicated;
  harness::InterceptMode intercept;
  replication::ReplicationStyle style;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int requests = static_cast<int>(cfg.get_int("requests", 10000));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  const Mode modes[] = {
      {"No interceptor", false, harness::InterceptMode::kNone,
       replication::ReplicationStyle::kActive},
      {"Client intercepted", false, harness::InterceptMode::kClientOnly,
       replication::ReplicationStyle::kActive},
      {"Server intercepted", false, harness::InterceptMode::kServerOnly,
       replication::ReplicationStyle::kActive},
      {"Server & client intercepted", false, harness::InterceptMode::kBoth,
       replication::ReplicationStyle::kActive},
      {"Warm passive (1 replica)", true, harness::InterceptMode::kNone,
       replication::ReplicationStyle::kWarmPassive},
      {"Active (1 replica)", true, harness::InterceptMode::kNone,
       replication::ReplicationStyle::kActive},
  };

  std::printf("Figure 4 — overhead of the replicator (remote client-server)\n");
  std::printf("(%d-request cycle per configuration; bars show mean +/- jitter)\n\n",
              requests);

  std::vector<harness::Bar> bars;
  harness::Table table({"configuration", "mean RTT [us]", "jitter [us]", "p99 [us]"});

  for (const Mode& mode : modes) {
    harness::ScenarioConfig config;
    config.seed = seed;
    config.clients = 1;
    config.replicas = 1;
    config.max_replicas = 1;
    config.replicated = mode.replicated;
    config.intercept = mode.intercept;
    config.style = mode.style;

    harness::Scenario scenario(config);
    harness::Scenario::CycleConfig cycle;
    cycle.requests_per_client = requests;
    const harness::ExperimentResult result = scenario.run_closed_loop(cycle);

    bars.push_back({mode.label, result.avg_latency_us, result.jitter_us});
    table.add_row({mode.label, harness::Table::num(result.avg_latency_us),
                   harness::Table::num(result.jitter_us),
                   harness::Table::num(result.p99_latency_us)});
  }

  std::printf("%s\n", harness::render_bars("round-trip time", "us", bars).c_str());
  std::printf("%s", table.render().c_str());
  return 0;
}
