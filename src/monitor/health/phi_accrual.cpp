#include "monitor/health/phi_accrual.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace vdep::monitor::health {

namespace {
constexpr double kPhiCap = 100.0;
// Inter-arrival samples kept for the mean/stddev estimate.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kMinSamples = 3;
// Stddev floor (us): absorbs the near-zero variance of simulated heartbeats
// so one slightly-late arrival cannot spike phi.
constexpr double kMinStddevUs = 5000.0;
// A sample longer than factor x mean is clamped before entering the window:
// a survived outage is a failure observation, not a latency sample, and must
// not desensitize the detector for the next fault.
constexpr double kMaxIntervalFactor = 5.0;
}  // namespace

static_assert(PhiAccrualDetector::kPhiClear < PhiAccrualDetector::kPhiSuspect);

double PhiAccrualDetector::mean_interval_us() const {
  if (intervals_us_.size() < kMinSamples) return to_usec(kBootstrapInterval);
  return sum_ / static_cast<double>(intervals_us_.size());
}

double PhiAccrualDetector::stddev_interval_us() const {
  if (intervals_us_.size() < kMinSamples) return kMinStddevUs;
  const auto n = static_cast<double>(intervals_us_.size());
  const double mean = sum_ / n;
  const double var = std::max(0.0, sum_sq_ / n - mean * mean);
  return std::max(std::sqrt(var), kMinStddevUs);
}

void PhiAccrualDetector::heartbeat(SimTime now) {
  if (started_) {
    VDEP_ASSERT_MSG(now >= last_at_, "heartbeats must be observed in time order");
    double interval = to_usec(now - last_at_);
    const double cap = kMaxIntervalFactor * mean_interval_us();
    interval = std::min(interval, cap);
    intervals_us_.push_back(interval);
    sum_ += interval;
    sum_sq_ += interval * interval;
    if (intervals_us_.size() > kWindow) {
      const double evicted = intervals_us_.front();
      intervals_us_.pop_front();
      sum_ -= evicted;
      sum_sq_ -= evicted * evicted;
    }
  }
  started_ = true;
  last_at_ = now;
}

double PhiAccrualDetector::phi(SimTime now) const {
  if (!started_) return 0.0;
  const double since_us = to_usec(now - last_at_);
  const double mean = mean_interval_us();
  const double stddev = stddev_interval_us();
  const double y = (since_us - mean) / stddev;
  // P(next heartbeat later than `now`) under a normal inter-arrival model:
  // the upper tail, computed with erfc for precision far into the tail.
  const double p_later = 0.5 * std::erfc(y / std::numbers::sqrt2);
  if (p_later <= 0.0) return kPhiCap;
  const double value = -std::log10(p_later);
  return std::clamp(value, 0.0, kPhiCap);
}

}  // namespace vdep::monitor::health
