#include "monitor/health/slo.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vdep::monitor::health {

namespace {
// A counter's gain since `last`, which moves to the counter's value. A
// counter that went backwards (a registry reset) gained nothing.
std::uint64_t gained(const MetricsRegistry& registry, const std::string& name,
                     std::uint64_t& last) {
  const std::uint64_t value = registry.counter(name);
  const std::uint64_t delta = value >= last ? value - last : 0;
  last = value;
  return delta;
}
}  // namespace

SloTracker::SloTracker(SloSpec spec) : spec_(std::move(spec)) {
  VDEP_ASSERT(!spec_.name.empty());
  VDEP_ASSERT(!spec_.latency_metric.empty());
  VDEP_ASSERT(!spec_.request_counter.empty());
  VDEP_ASSERT(spec_.availability_target < 1.0);
  VDEP_ASSERT(spec_.window > 0);
}

void SloTracker::cut(const MetricsRegistry& registry) {
  Window w;
  w.requests = gained(registry, spec_.request_counter, last_requests_);
  if (!spec_.failure_counter.empty()) {
    w.failures = gained(registry, spec_.failure_counter, last_failures_);
  }
  if (const LogHistogram* latency = registry.histogram(spec_.latency_metric)) {
    w.latency = last_latency_ ? latency->delta_since(*last_latency_) : *latency;
    last_latency_ = *latency;
  }
  windows_.push_back(std::move(w));
  if (windows_.size() > spec_.window) windows_.pop_front();
}

SloStatus SloTracker::evaluate() const {
  SloStatus status;
  for (const Window& w : windows_) {
    status.requests += w.requests;
    status.failures += w.failures;
  }
  if (status.requests < spec_.min_requests) return status;  // vacuously met

  LogHistogram latency;
  for (const Window& w : windows_) latency.merge(w.latency);
  if (latency.count() > 0) {
    status.p99_us = latency.percentile(99.0);
    status.latency_met = status.p99_us <= spec_.latency_p99_target_us;
  }
  // Requests that failed outright count against availability; latency does
  // not (it has its own objective).
  const auto total = static_cast<double>(status.requests + status.failures);
  status.availability =
      1.0 - static_cast<double>(status.failures) / std::max(1.0, total);
  status.availability_met = status.availability >= spec_.availability_target;
  status.burn_rate =
      std::max(0.0, 1.0 - status.availability) / (1.0 - spec_.availability_target);
  return status;
}

}  // namespace vdep::monitor::health
