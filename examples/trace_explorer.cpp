// Trace explorer: record a causal flight recording of a failover.
//
// Runs a warm-passive replicated service with the tracer enabled, crashes
// the primary mid-run, and exports the resulting span forest two ways:
//   - Chrome-trace JSON (open in chrome://tracing or ui.perfetto.dev) —
//     every client request is one trace linking client ORB, coordinator,
//     group-communication daemons, and every replica's execution; the
//     failover shows up as a long coord.send span bracketing retries, the
//     backup's rep.promote, and the replayed executions;
//   - the canonical text tree, printed (head) and optionally written.
//
// Both renderings are byte-deterministic for a given seed: running this
// binary twice with the same arguments produces identical files (the CI
// determinism gate does exactly that and diffs them).
//
// Run:  ./trace_explorer [seed=42] [out=trace.json] [txt=] [metrics=0]
//       ./trace_explorer shards=N [shard=K] [out=trace.json]
//
// With metrics=1 the scenario also runs its live health plane and dumps the
// full metrics registry (counters, gauges — including health.* suspicion and
// SLO gauges — and distribution summaries) as stable-key JSON to
// metrics_out (default metrics.json).
//
// With shards=N the recording comes from a sharded cluster performing an
// online split; every routed request carries a "shard.route" span noted
// with its shard id and map epoch, and shard=K narrows the printed span
// listing to one shard. The default (unsharded) output is untouched — the
// CI determinism gate diffs it byte-for-byte.
#include <cstdio>
#include <string>

#include "harness/scenario.hpp"
#include "monitor/metrics_export.hpp"
#include "obs/export.hpp"
#include "shard/cluster.hpp"
#include "util/config.hpp"

using namespace vdep;

namespace {

// Sharded flight recording: run a routed workload across `shards` groups
// with one online split, then slice the span table per shard.
int run_sharded_trace(const Config& cfg, int shards) {
  const std::string out = cfg.get_str("out", "trace.json");
  const std::int64_t shard_filter = cfg.get_int("shard", -1);

  shard::ShardedClusterConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.shards = shards;
  config.clients = 2;
  config.tracing = true;
  shard::ShardedCluster cluster(config);

  const auto first = cluster.initial_map().entries().front();
  cluster.kernel().post_at(msec(500), [&] {
    cluster.split_shard(first.shard,
                        first.range.lo +
                            static_cast<std::uint32_t>(first.range.width() / 2),
                        cluster.config().default_policy);
  });
  shard::ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = static_cast<int>(cfg.get_int("requests", 100));
  const auto result = cluster.run_workload(wc);
  for (int i = 0; i < 10 && !cluster.migration().idle(); ++i) cluster.drain(msec(500));
  cluster.drain();

  const obs::Tracer& tracer = cluster.kernel().tracer();
  std::printf("trace_explorer — sharded routing flight recording (%d shards)\n",
              shards);
  std::printf("  ops completed        %llu\n",
              static_cast<unsigned long long>(result.completed));
  std::printf("  spans recorded       %llu (dropped %llu)\n",
              static_cast<unsigned long long>(tracer.spans_recorded()),
              static_cast<unsigned long long>(tracer.spans_dropped()));

  // Per-shard span census from the "shard" note on shard.route spans; with
  // shard=K also list that shard's individual routes.
  std::map<std::string, std::uint64_t> per_shard;
  for (const auto& span : tracer.spans()) {
    if (span.name != "shard.route") continue;
    for (const auto& [key, value] : span.notes) {
      if (key == "shard") ++per_shard[value];
    }
  }
  for (const auto& [id, count] : per_shard) {
    std::printf("  shard %-4s %6llu routed spans\n", id.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (shard_filter >= 0) {
    const std::string wanted = std::to_string(shard_filter);
    std::printf("  --- spans for shard %s ---\n", wanted.c_str());
    int listed = 0;
    for (const auto& span : tracer.spans()) {
      if (span.name != "shard.route" || listed >= 40) continue;
      std::string epoch, op;
      bool match = false;
      for (const auto& [key, value] : span.notes) {
        if (key == "shard" && value == wanted) match = true;
        if (key == "epoch") epoch = value;
        if (key == "op") op = value;
      }
      if (!match) continue;
      std::printf("  [%9lld ns] %-8s epoch=%s %s\n",
                  static_cast<long long>(span.start.count()), op.c_str(),
                  epoch.c_str(), std::string(span.proc).c_str());
      ++listed;
    }
  }

  const std::string json = obs::to_chrome_trace(tracer);
  if (!obs::write_file(out, json)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("  wrote %s (%zu bytes) — load in chrome://tracing\n", out.c_str(),
              json.size());
  return result.all_done ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const std::string out = cfg.get_str("out", "trace.json");
  const std::string txt = cfg.get_str("txt", "");

  const int shards = static_cast<int>(cfg.get_int("shards", 1));
  if (shards > 1) return run_sharded_trace(cfg, shards);

  // Warm-passive, 3 replicas, tracing on. The primary dies one second in,
  // so the recording contains: steady-state request trees, the view change,
  // the backup's promotion + log replay, and the clients' retry storms.
  harness::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.tracing = true;
  const bool dump_metrics = cfg.get_int("metrics", 0) != 0;
  config.health = dump_metrics;
  harness::Scenario scenario(config);

  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));

  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = static_cast<int>(cfg.get_int("requests", 400));
  const harness::ExperimentResult result = scenario.run_closed_loop(cycle);
  scenario.drain();

  const obs::Tracer& tracer = scenario.kernel().tracer();
  std::printf("trace_explorer — warm-passive failover flight recording\n");
  std::printf("  requests completed   %llu\n",
              static_cast<unsigned long long>(result.completed));
  std::printf("  retransmissions      %llu\n",
              static_cast<unsigned long long>(result.retransmissions));
  std::printf("  spans recorded       %llu (dropped %llu)\n",
              static_cast<unsigned long long>(tracer.spans_recorded()),
              static_cast<unsigned long long>(tracer.spans_dropped()));
  std::printf("  traces started       %llu\n",
              static_cast<unsigned long long>(tracer.traces_started()));

  const std::string json = obs::to_chrome_trace(tracer);
  if (!obs::write_file(out, json)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("  wrote %s (%zu bytes) — load in chrome://tracing\n", out.c_str(),
              json.size());

  if (dump_metrics) {
    const std::string metrics_out = cfg.get_str("metrics_out", "metrics.json");
    const std::string metrics_json = monitor::to_metrics_json(scenario.metrics());
    if (!obs::write_file(metrics_out, metrics_json)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu bytes) — metrics registry snapshot\n",
                metrics_out.c_str(), metrics_json.size());
    std::printf("  health events        %zu\n", scenario.health().events().size());
  }

  const std::string text = obs::render_text(tracer);
  if (!txt.empty()) {
    if (!obs::write_file(txt, text)) {
      std::fprintf(stderr, "failed to write %s\n", txt.c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu bytes)\n", txt.c_str(), text.size());
  }

  // Print the first few trees so the causal structure is visible inline.
  std::size_t lines = 0, pos = 0;
  while (pos < text.size() && lines < 40) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::printf("%.*s\n", static_cast<int>(nl - pos), text.c_str() + pos);
    pos = nl + 1;
    ++lines;
  }
  if (pos < text.size()) std::printf("  ... (%zu bytes total)\n", text.size());
  return 0;
}
