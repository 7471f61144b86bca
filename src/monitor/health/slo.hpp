// Declarative service-level objectives, each judged over its own windows.
//
// An SloSpec names the metrics that define a service's health — a latency
// distribution, a request counter and (optionally) a failure counter — plus
// the targets: a p99 latency bound and an availability floor, both judged
// over the last `window` telemetry windows. The tracker cuts those windows
// itself: each cut() takes the request and failure counter deltas and the
// latency histogram delta since the previous cut, and keeps the newest
// `window` of them, so nothing else in the registry is copied. evaluate()
// returns an SloStatus; the HealthMonitor turns status transitions into
// breach/recover events and publishes attainment gauges and burn-rate
// counters.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "monitor/metrics.hpp"

namespace vdep::monitor::health {

struct SloSpec {
  std::string name;             // "service", "shard.3", ...
  std::string latency_metric;   // distribution of per-request latencies (us)
  std::string request_counter;  // completed requests
  std::string failure_counter;  // failed requests ("" = none recorded)
  double latency_p99_target_us = 50'000.0;
  double availability_target = 0.99;  // must be < 1.0
  std::size_t window = 10;            // telemetry windows per evaluation
  // Below this many requests in the window the objective is vacuously met
  // (an idle service is not in breach).
  std::uint64_t min_requests = 1;
};

struct SloStatus {
  double p99_us = 0.0;
  double availability = 1.0;
  // Error-budget burn rate: (1 - availability) / (1 - target). 1.0 means
  // failures arrive exactly at the rate the objective tolerates; above that
  // the budget is burning down.
  double burn_rate = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  bool latency_met = true;
  bool availability_met = true;

  [[nodiscard]] bool met() const { return latency_met && availability_met; }
};

class SloTracker {
 public:
  explicit SloTracker(SloSpec spec);

  [[nodiscard]] const SloSpec& spec() const { return spec_; }
  // Closes a window: what the spec's three metrics gained since the last
  // cut (everything so far on the first). A metric the registry has never
  // seen contributes nothing.
  void cut(const MetricsRegistry& registry);
  // Judges the objective over the last `spec().window` windows.
  [[nodiscard]] SloStatus evaluate() const;

 private:
  struct Window {
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    LogHistogram latency;  // only this window's samples
  };

  SloSpec spec_;
  std::deque<Window> windows_;  // oldest first, at most spec_.window
  // The metrics as of the last cut, diffed against on the next one.
  std::uint64_t last_requests_ = 0;
  std::uint64_t last_failures_ = 0;
  std::optional<LogHistogram> last_latency_;
};

}  // namespace vdep::monitor::health
