// Shared plumbing of the repository benchmark: run options, the report a
// workload fills, wall-clock timing and order statistics, and the
// outside-in layer profiler the traced runs use.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "obs/tracer.hpp"
#include "replication/app_state.hpp"
#include "replication/replicator.hpp"
#include "sim/kernel.hpp"
#include "util/bytes.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget of one run
  bool trace = false;     // false: end-to-end metrics, true: per-layer metrics
};

// What one workload run reports. `metrics` must end up holding every metric
// the run's mode names (main.cpp checks); `digests` are the correctness
// fingerprints the determinism tests compare across runs.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> digests;
  std::vector<std::string> notes;  // human-readable lines, printed first
  // Layers (metric-name prefixes) this workload does not exercise, or runs
  // out of the benchmark's reach (chaos trials' kernels live inside
  // run_campaign): their per-layer metrics read 0 unless the workload sets
  // them.
  std::set<std::string> unmeasured_layers;

  void fail(const std::string& why);
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void note(const std::string& line) { notes.push_back(line); }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

void run_fleet_sparse(const Options& options, Report& report);
void run_group_active(const Options& options, Report& report);
void run_chaos_fleet(const Options& options, Report& report);

// --- timing and statistics ------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
[[nodiscard]] double peak_rss_mb();
// Safe ratio: 0 when the denominator is 0.
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}
[[nodiscard]] std::string hex64(std::uint64_t value);
// Joins strings and literals. Appending avoids `"literal" + std::string`,
// on which GCC 12 at -O3 emits a false -Wrestrict warning.
template <typename... Parts>
[[nodiscard]] std::string cat(const Parts&... parts) {
  std::string out;
  (out.append(std::string_view(parts)), ...);
  return out;
}
[[nodiscard]] inline std::uint64_t fnv1a_str(const std::string& text) {
  return vdep::fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

// --- machine speed probe ------------------------------------------------------------
//
// A shared host's speed drifts by tens of percent over seconds to minutes,
// which no length of run averages out. So each repetition is preceded by the
// probe, a fixed piece of work that uses no library code: an event heap of
// std::function callbacks, a hash map of strings and small buffer copies,
// the kinds of work the simulator does. The end-to-end wall times are
// reported in normalised seconds: wall seconds scaled by kProbeNominalS over
// the probe's time just before, i.e. the time the work would take on a
// machine that runs the probe in kProbeNominalS. A change to the library
// moves them; the machine's drift mostly cancels.

// Times one run of the probe, in wall seconds.
[[nodiscard]] double probe_s();
// About the probe's time on a quiet 4-vCPU VM, so normalised figures read
// close to wall ones there.
inline constexpr double kProbeNominalS = 0.020;
[[nodiscard]] inline double normalised_s(double wall_s, double probe) {
  return wall_s * kProbeNominalS / probe;
}

// Repeats a measurement for about `budget` wall seconds, and at least 3
// times so that medians mean something. Times the probe before each
// repetition and passes its time, in seconds, to `fn`.
template <typename Fn>
void repeat_for(double budget, Fn&& fn) {
  const auto start = Clock::now();
  for (int reps = 0; reps < 3 || seconds_since(start) < budget; ++reps) fn(probe_s());
}

// --- layer profiler ---------------------------------------------------------------

// The layers wall time is charged to, by the category (and name) of the
// last span an event opened.
enum class Layer : std::uint8_t { kGcs, kOrb, kRep, kCkpt, kShard, kOther, kUntagged };
inline constexpr std::size_t kLayerCount = 7;
[[nodiscard]] const char* layer_name(Layer layer);
[[nodiscard]] Layer layer_of(const vdep::obs::Tracer::SpanRecord& span);

// Steps a kernel one event at a time with run_steps(1), times every event
// with steady_clock and charges it to the layer of the last span it opened.
// Events that open no span are charged to kUntagged.
class StepProfiler {
 public:
  explicit StepProfiler(vdep::sim::Kernel& kernel) : kernel_(kernel) {}

  // Steps until the kernel is stopped by an event or the next event would be
  // past `deadline`'s sim time (checked after each step).
  void run_until(vdep::SimTime deadline);

  [[nodiscard]] double wall_share(Layer layer) const;

 private:
  vdep::sim::Kernel& kernel_;
  std::array<std::uint64_t, kLayerCount> ns_{};
  std::uint64_t total_ns_ = 0;
};

// Simulated time of each request's blocking path, split by layer. Each
// request is one trace rooted at a "client.request" span. The path keeps the
// spans on the client's host, the sequencer's gcs.order and the spans on the
// host of the replica whose reply reached the client first. Every interval
// between consecutive span boundaries on that path is charged to the layer
// of the boundary that closes it: the work before a gcs span opens is
// message transport, the work before coord.send or orb.dispatch opens is an
// ORB traversal, and so on.
struct PathTimes {
  std::uint64_t requests = 0;  // traces with a complete blocking path
  std::uint64_t incomplete = 0;
  double gcs_us = 0.0;
  double orb_us = 0.0;  // includes the servant's execution time
  double rep_us = 0.0;
  double other_us = 0.0;
};
[[nodiscard]] PathTimes blocking_path_times(const vdep::obs::Tracer& tracer);

// Counts spans by exact name.
[[nodiscard]] std::uint64_t count_spans(const vdep::obs::Tracer& tracer,
                                        const std::string& name);

// --- timed servant -----------------------------------------------------------------

// Wall and simulated time an application spent in invoke().
struct AppTotals {
  std::uint64_t invokes = 0;
  std::uint64_t wall_ns = 0;
  double sim_us = 0.0;
};

// A Checkpointable decorator that times every invoke() in wall-clock
// nanoseconds and sums the simulated CPU time the servant charges.
class TimedServant final : public vdep::replication::Checkpointable {
 public:
  TimedServant(std::unique_ptr<vdep::replication::Checkpointable> inner,
               std::shared_ptr<AppTotals> totals)
      : inner_(std::move(inner)), totals_(std::move(totals)) {}

  Result invoke(const std::string& operation, const vdep::Bytes& args) override;
  [[nodiscard]] vdep::Bytes snapshot() const override { return inner_->snapshot(); }
  void restore(std::span<const std::uint8_t> snapshot) override {
    inner_->restore(snapshot);
  }
  [[nodiscard]] std::size_t state_size() const override { return inner_->state_size(); }
  [[nodiscard]] std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  [[nodiscard]] bool supports_delta() const override { return inner_->supports_delta(); }
  std::uint64_t cut_epoch() override { return inner_->cut_epoch(); }
  [[nodiscard]] std::optional<vdep::Bytes> snapshot_delta(
      std::uint64_t since_epoch) const override {
    return inner_->snapshot_delta(since_epoch);
  }
  void apply_delta(std::span<const std::uint8_t> delta) override {
    inner_->apply_delta(delta);
  }

 private:
  std::unique_ptr<vdep::replication::Checkpointable> inner_;
  std::shared_ptr<AppTotals> totals_;
};

// --- request workloads -----------------------------------------------------------

// How a request workload runs one repetition: set up only (for the setup_s
// median), untraced, or traced and stepped by the StepProfiler.
enum class Mode { kSetupOnly, kUntraced, kTraced };

// What one repetition of a request workload (fleet_sparse, group_active)
// measures.
struct RequestRep {
  double probe_s = 0.0;  // the machine probe's time just before the repetition
  double setup_s = 0.0;
  double run_s = 0.0;
  double total_s = 0.0;
  double peak_rss_mb = 0.0;  // the process's peak so far, read at the end
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::vector<double> latencies_us;
  vdep::net::TrafficTotals traffic;
  // Replicator and client-side telemetry, summed over the workload.
  std::uint64_t executions = 0;
  std::uint64_t retries = 0;
  std::uint64_t rounds = 0;
  std::uint64_t full = 0;
  std::uint64_t delta = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t installs = 0;
  std::uint64_t routes = 0;
  std::uint64_t stale = 0;
  std::uint64_t call_ns = 0;  // wall time inside the synchronous client calls
  AppTotals app;              // zero when the servants are not timed
  // Checkpoint rounds seen by set_on_checkpoint (traced only), and those
  // after which the app's state digest had moved.
  std::uint64_t hooked_rounds = 0;
  std::uint64_t useful_rounds = 0;
  std::string state_digest;
  std::uint64_t fingerprint = 0;
  // Traced repetition only.
  std::array<double, kLayerCount> shares{};
  PathTimes path;
  std::uint64_t deliveries = 0;
  std::uint64_t views = 0;
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;

  void add_replicator(const vdep::replication::Replicator& replicator);
  // Counts, through set_on_checkpoint, the rounds after which `digest` (the
  // replica's app state digest) had moved since its previous round.
  void watch_checkpoints(vdep::replication::Replicator& replicator,
                         std::function<std::uint64_t()> digest);
  // Takes the layer shares and span counts of a traced repetition.
  void add_trace(const StepProfiler& profiler, const vdep::obs::Tracer& tracer);
  // Fingerprints everything the seed determines; stamps total_s and
  // peak_rss_mb.
  void seal(Clock::time_point start);
};

// Folds a request workload's repetitions into the report: end-to-end
// metrics from the untraced ones (normalised by each one's probe_s),
// per-layer metrics from the first untraced one (counts), all untraced ones
// (wall medians) and the traced one (spans). `setups` holds every setup time
// measured, setup-only runs included, already normalised.
void report_requests(const std::string& workload, const std::vector<RequestRep>& reps,
                     const RequestRep* traced, const std::vector<double>& setups,
                     Report& report);

}  // namespace perfbench
