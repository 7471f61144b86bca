// perfbench — the repository benchmark.
//
//   perfbench --workload <fleet_sparse|group_active|chaos_fleet> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --list-metrics
//
// Builds each workload's inputs from the seed, measures for about `seconds`
// wall seconds, checks the outputs, and prints a human-readable summary
// followed by one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set of a separate traced run. See perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each of them, none reads 0.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_requests_per_norm_s", "1/norm_s"},
    {"trials_per_norm_s", "1/norm_s"},
    {"peak_rss_mb", "MB"},
    {"sim_latency_p50_ms", "sim_ms"},
    {"sim_latency_p99_ms", "sim_ms"},
    {"sim_slo_met_ratio", "ratio"},
    {"ops_completed_ratio", "ratio"},
};

// Per-layer metrics of the traced run; a layer a workload does not exercise,
// or cannot observe, reads 0 there.
const std::vector<MetricSpec> kPerLayer = {
    {"probe.wall_ms", "ms"},
    {"sim.events_per_request", "count"},
    {"sim.wall_ns_per_event", "ns"},
    {"net.packets_per_request", "count"},
    {"net.dropped_packets", "count"},
    {"net.wire_bytes_per_request", "bytes"},
    {"gcs.deliveries_per_request", "count"},
    {"gcs.sim_self_us_per_request", "sim_us"},
    {"gcs.views", "count"},
    {"gcs.wall_share", "ratio"},
    {"orb.invoke_wall_ns", "ns"},
    {"orb.sim_self_us_per_request", "sim_us"},
    {"orb.wall_share", "ratio"},
    {"rep.executions_per_request", "count"},
    {"rep.coord_retries_per_request", "count"},
    {"rep.sim_self_us_per_request", "sim_us"},
    {"rep.wall_share", "ratio"},
    {"ckpt.rounds_per_request", "count"},
    {"ckpt.useful_ratio", "ratio"},
    {"ckpt.full_ratio", "ratio"},
    {"ckpt.bytes_per_request", "bytes"},
    {"ckpt.installs_per_round", "count"},
    {"ckpt.wall_share", "ratio"},
    {"shard.route_wall_ns", "ns"},
    {"shard.routes_per_request", "count"},
    {"shard.stale_rejections", "count"},
    {"shard.wall_share", "ratio"},
    {"app.invoke_wall_ns", "ns"},
    {"app.invokes_per_request", "count"},
    {"app.sim_us_per_request", "sim_us"},
    {"obs.tracing_overhead_ratio", "ratio"},
    {"obs.spans_per_request", "count"},
    {"untagged.wall_share", "ratio"},
    {"parallel.efficiency", "ratio"},
    {"chaos.trial_wall_ms_p50", "ms"},
    {"chaos.trial_wall_ms_p95", "ms"},
    {"chaos.trial_wall_ms.A", "ms"},
    {"chaos.trial_wall_ms.P", "ms"},
    {"chaos.trial_wall_ms.C", "ms"},
    {"chaos.trial_wall_ms.S", "ms"},
    {"chaos.trial_wall_ms.H", "ms"},
    {"chaos.pass_ratio", "ratio"},
    {"chaos.recovery_ms_p95", "sim_ms"},
    {"health.events_per_trial", "count"},
    {"health.detection_ms_p95", "sim_ms"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_sparse|group_active|chaos_fleet> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --list-metrics\n");
}

void list_metrics() {
  auto dump = [](const char* key, const std::vector<MetricSpec>& specs, bool last) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  specs[i].name, specs[i].unit);
    }
    std::printf("]%s", last ? "" : ", ");
  };
  std::printf("{");
  dump("end_to_end", kEndToEnd, false);
  dump("per_layer", kPerLayer, true);
  std::printf("}\n");
}

// JSON numbers carry every digit the double holds.
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool parse(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 == argc) {
      return false;
    } else if (arg == "--workload") {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return have_workload && options.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string_view(argv[1]) == "--list-metrics") {
    list_metrics();
    return 0;
  }
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }

  Report report;
  if (options.workload == "fleet_sparse") {
    run_fleet_sparse(options, report);
  } else if (options.workload == "group_active") {
    run_group_active(options, report);
  } else if (options.workload == "chaos_fleet") {
    run_chaos_fleet(options, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    usage();
    return 2;
  }

  const auto& specs = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& spec : specs) {
    const std::string name = spec.name;
    const std::string layer = name.substr(0, name.find('.'));
    if (!report.metrics.contains(name) && report.unmeasured_layers.contains(layer)) {
      report.set(name, 0.0);
    }
    if (!report.metrics.contains(name) || !std::isfinite(report.metrics.at(name))) {
      std::fprintf(stderr, "perfbench: workload %s did not report a finite %s\n",
                   options.workload.c_str(), spec.name);
      return 3;
    }
  }

  for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
  for (const auto& [name, digest] : report.digests) {
    std::printf("digest %-28s %s\n", name.c_str(), digest.c_str());
  }
  for (const auto& spec : specs) {
    std::printf("metric %-32s %16.6f %s\n", spec.name, report.metrics.at(spec.name),
                spec.unit);
  }

  std::string json = cat("{\"correct\": ", report.correct ? "true" : "false",
                         ", \"attempted\": ", std::to_string(report.attempted),
                         ", \"failed\": ", std::to_string(report.failed), ", \"metrics\": {");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    json += cat(i > 0 ? ", " : "", "\"", specs[i].name, "\": {\"value\": ",
                json_number(report.metrics.at(specs[i].name)), ", \"unit\": \"",
                specs[i].unit, "\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
