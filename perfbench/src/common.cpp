#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n", why.c_str());
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double probe_s() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<std::uint64_t, std::function<void()>>;
  const auto later = [](const Event& a, const Event& b) { return a.first > b.first; };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(later);
  std::unordered_map<std::uint64_t, std::string> table;
  std::uint64_t sink = 0;
  for (int i = 0; i < 4096; ++i) queue.push({next() % 1'000'000, [&sink] { ++sink; }});
  for (int i = 0; i < 50'000; ++i) {
    const Event event = queue.top();
    queue.pop();
    event.second();
    const std::uint64_t key = next() % 20'000;
    std::string& value = table[key];
    value.assign(16 + next() % 200, static_cast<char>('a' + key % 26));
    const std::vector<std::uint8_t> copy(value.begin(), value.end());
    sink += copy[copy.size() / 2];
    queue.push({event.first + next() % 1000, [&sink, key] { sink += key; }});
  }
  asm volatile("" : : "r"(sink) : "memory");  // keeps the work from being optimised away
  return seconds_since(start);
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// --- request workloads --------------------------------------------------------------

void RequestRep::add_replicator(const vdep::replication::Replicator& replicator) {
  executions += replicator.requests_executed();
  rounds += replicator.checkpoints_taken();
  full += replicator.checkpoints_full_taken();
  delta += replicator.checkpoints_delta_taken();
  ckpt_bytes += replicator.checkpoint_bytes_sent();
  installs += replicator.installs_full() + replicator.installs_delta();
}

void RequestRep::watch_checkpoints(vdep::replication::Replicator& replicator,
                                   std::function<std::uint64_t()> digest) {
  const std::uint64_t initial = digest();
  replicator.set_on_checkpoint(
      [this, digest = std::move(digest), last = initial](std::uint64_t) mutable {
        const std::uint64_t now = digest();
        ++hooked_rounds;
        if (now != last) ++useful_rounds;
        last = now;
      });
}

void RequestRep::add_trace(const StepProfiler& profiler, const vdep::obs::Tracer& tracer) {
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    shares[l] = profiler.wall_share(static_cast<Layer>(l));
  }
  path = blocking_path_times(tracer);
  deliveries = count_spans(tracer, "gcs.deliver");
  views = count_spans(tracer, "gcs.view");
  spans = tracer.spans_recorded();
  spans_dropped = tracer.spans_dropped();
}

void RequestRep::seal(Clock::time_point start) {
  std::string fp = cat(state_digest, "/", std::to_string(completed), "/",
                       std::to_string(traffic.bytes), "/", std::to_string(rounds));
  for (double l : latencies_us) {
    fp += ',';
    fp += std::to_string(std::llround(l * 1000.0));
  }
  fingerprint = fnv1a_str(fp);
  total_s = seconds_since(start);
  peak_rss_mb = perfbench::peak_rss_mb();
}

void report_requests(const std::string& workload, const std::vector<RequestRep>& reps,
                     const RequestRep* traced, const std::vector<double>& setups,
                     Report& report) {
  const RequestRep& first = reps.front();
  for (const auto& r : reps) {
    report.check(r.fingerprint == first.fingerprint,
                 workload + ": a repetition diverged from the first");
  }
  std::vector<double> rps, wall_rps, trials, probes, run_s, ns_per_event, call_ns, app_ns;
  for (const auto& r : reps) {
    rps.push_back(ratio(static_cast<double>(r.completed), normalised_s(r.run_s, r.probe_s)));
    wall_rps.push_back(ratio(static_cast<double>(r.completed), r.run_s));
    trials.push_back(1.0 / normalised_s(r.total_s, r.probe_s));
    probes.push_back(r.probe_s);
    run_s.push_back(r.run_s);
    ns_per_event.push_back(ratio(r.run_s * 1e9, static_cast<double>(r.events)));
    call_ns.push_back(ratio(static_cast<double>(r.call_ns), static_cast<double>(r.issued)));
    app_ns.push_back(
        ratio(static_cast<double>(r.app.wall_ns), static_cast<double>(r.app.invokes)));
  }
  const double completed = static_cast<double>(first.completed);
  const double issued = static_cast<double>(first.issued);
  const double slo_limit_us = 50'000.0;
  double slo_met = 0.0;
  for (double l : first.latencies_us) {
    if (l <= slo_limit_us) slo_met += 1.0;
  }
  const auto per_request = [completed](std::uint64_t n) {
    return ratio(static_cast<double>(n), completed);
  };

  report.attempted = first.issued * reps.size();
  for (const auto& r : reps) report.failed += r.failed;
  report.digests[workload + ".state"] = first.state_digest;
  report.digests[workload + ".run"] = hex64(first.fingerprint);

  report.set("setup_s", median(setups));
  report.set("sim_requests_per_norm_s", median(rps));
  report.set("trials_per_norm_s", median(trials));
  // Read after the first repetition: later ones only add allocator
  // fragmentation, which would tie the figure to the machine's speed.
  report.set("peak_rss_mb", first.peak_rss_mb);
  report.set("sim_latency_p50_ms", percentile(first.latencies_us, 50) / 1000.0);
  report.set("sim_latency_p99_ms", percentile(first.latencies_us, 99) / 1000.0);
  report.set("sim_slo_met_ratio", ratio(slo_met, issued));
  report.set("ops_completed_ratio", ratio(completed, issued));

  char line[320];
  std::snprintf(line, sizeof(line),
                "%s: %zu repetitions, %.0f of %.0f requests completed per repetition",
                workload.c_str(), reps.size(), completed, issued);
  report.note(line);
  std::snprintf(line, sizeof(line),
                "wall clock, not normalised: %.1f requests/s, machine probe %.3f ms",
                median(wall_rps), median(probes) * 1000.0);
  report.note(line);
  std::snprintf(line, sizeof(line),
                "end-to-end, full list: sim_wire_bytes_per_request=%.1f "
                "sim_slo_miss_ratio=%.6f ops_failed_ratio=%.6f chaos_pass_ratio=n/a "
                "sim_recovery_ms_p95=n/a detection_ms_p95=n/a",
                per_request(first.traffic.bytes), 1.0 - ratio(slo_met, issued),
                ratio(static_cast<double>(first.failed), issued));
  report.note(line);
  std::snprintf(line, sizeof(line),
                "sim latency ms: p50 %.6f p90 %.6f p99 %.6f p99.9 %.6f max %.6f (%zu samples)",
                percentile(first.latencies_us, 50) / 1000.0,
                percentile(first.latencies_us, 90) / 1000.0,
                percentile(first.latencies_us, 99) / 1000.0,
                percentile(first.latencies_us, 99.9) / 1000.0,
                percentile(first.latencies_us, 100) / 1000.0, first.latencies_us.size());
  report.note(line);

  report.set("probe.wall_ms", median(probes) * 1000.0);
  report.set("sim.events_per_request", per_request(first.events));
  report.set("sim.wall_ns_per_event", median(ns_per_event));
  report.set("net.packets_per_request", per_request(first.traffic.packets));
  report.set("net.dropped_packets", static_cast<double>(first.traffic.dropped_packets));
  report.set("net.wire_bytes_per_request", per_request(first.traffic.bytes));
  report.set("rep.executions_per_request", per_request(first.executions));
  report.set("rep.coord_retries_per_request", per_request(first.retries));
  report.set("ckpt.rounds_per_request", per_request(first.rounds));
  report.set("ckpt.full_ratio", ratio(static_cast<double>(first.full),
                                      static_cast<double>(first.full + first.delta)));
  report.set("ckpt.bytes_per_request", per_request(first.ckpt_bytes));
  report.set("ckpt.installs_per_round", ratio(static_cast<double>(first.installs),
                                              static_cast<double>(first.rounds)));
  report.set("shard.routes_per_request", per_request(first.routes));
  report.set("shard.stale_rejections", static_cast<double>(first.stale));
  const double app_sim_us =
      ratio(first.app.sim_us, static_cast<double>(first.app.invokes));
  report.set("app.invoke_wall_ns", median(app_ns));
  report.set("app.invokes_per_request", per_request(first.app.invokes));
  report.set("app.sim_us_per_request", app_sim_us);
  // The synchronous client call: ClientOrb::invoke where the benchmark
  // calls the ORB itself, ShardRouter::put/get/append where it routes.
  const bool routed = first.routes > 0;
  report.set(routed ? "shard.route_wall_ns" : "orb.invoke_wall_ns", median(call_ns));
  if (routed) report.set("orb.invoke_wall_ns", 0.0);
  if (traced == nullptr) return;

  report.check(traced->fingerprint == first.fingerprint,
               workload + ": tracing changed the simulated run");
  report.check(traced->spans_dropped == 0,
               workload + ": tracer dropped " + std::to_string(traced->spans_dropped) +
                   " spans");
  const PathTimes& path = traced->path;
  report.check(path.incomplete * 100 <= path.requests,
               workload + ": " + std::to_string(path.incomplete) +
                   " requests without a complete blocking path");
  const double paths = static_cast<double>(path.requests);
  report.set("gcs.deliveries_per_request", per_request(traced->deliveries));
  report.set("gcs.sim_self_us_per_request", ratio(path.gcs_us, paths));
  report.set("gcs.views", static_cast<double>(traced->views));
  // The servant runs inside orb.dispatch: its simulated time is the app's.
  report.set("orb.sim_self_us_per_request", ratio(path.orb_us, paths) - app_sim_us);
  report.set("rep.sim_self_us_per_request", ratio(path.rep_us + path.other_us, paths));
  report.set("ckpt.useful_ratio", ratio(static_cast<double>(traced->useful_rounds),
                                        static_cast<double>(traced->hooked_rounds)));
  for (Layer l : {Layer::kGcs, Layer::kOrb, Layer::kRep, Layer::kCkpt, Layer::kShard}) {
    report.set(cat(layer_name(l), ".wall_share"), traced->shares[static_cast<std::size_t>(l)]);
  }
  report.set("untagged.wall_share",
             traced->shares[static_cast<std::size_t>(Layer::kUntagged)] +
                 traced->shares[static_cast<std::size_t>(Layer::kOther)]);
  report.set("obs.tracing_overhead_ratio", traced->run_s / median(run_s) - 1.0);
  report.set("obs.spans_per_request", per_request(traced->spans));
  std::snprintf(line, sizeof(line),
                "%s traced run: %llu spans, %llu request paths (%llu incomplete)",
                workload.c_str(), static_cast<unsigned long long>(traced->spans),
                static_cast<unsigned long long>(path.requests),
                static_cast<unsigned long long>(path.incomplete));
  report.note(line);
}

}  // namespace perfbench
