// Phi-accrual failure detection (Hayashibara et al., "The phi accrual
// failure detector", SRDS 2004) over one heartbeat stream.
//
// Instead of a binary alive/dead verdict at a fixed miss limit (the classic
// gcs::FailureDetector, which expels members), phi outputs a continuous
// suspicion level: phi(t) = -log10 P(a heartbeat arrives after t), with the
// arrival distribution estimated from a sliding window of observed
// inter-arrival times (normal tail via erfc — no sampling, deterministic).
// phi = 8 means "if we suspect now, the chance this is a false alarm is
// 1e-8 under the fitted model". The health plane runs one detector per
// daemon-to-daemon heartbeat link and publishes phi as a gauge, so
// suspicion rises and clears hundreds of milliseconds before the classic
// detector's expulsion threshold — the early-warning substrate for
// gray-failure handling.
#pragma once

#include <cstddef>
#include <deque>

#include "util/time.hpp"

namespace vdep::monitor::health {

class PhiAccrualDetector {
 public:
  // Until a few intervals are observed, the bootstrap interval stands in
  // for the mean.
  static constexpr SimTime kBootstrapInterval = msec(20);
  // Suspicion threshold and the hysteresis level that clears it.
  static constexpr double kPhiSuspect = 8.0;
  static constexpr double kPhiClear = 1.0;

  // A heartbeat arrived at `now` (must be non-decreasing).
  void heartbeat(SimTime now);

  // Current suspicion level. 0 before the first heartbeat; capped at 100.
  [[nodiscard]] double phi(SimTime now) const;

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] std::size_t samples() const { return intervals_us_.size(); }
  [[nodiscard]] double mean_interval_us() const;
  [[nodiscard]] double stddev_interval_us() const;

 private:
  bool started_ = false;
  SimTime last_at_ = kTimeZero;
  std::deque<double> intervals_us_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace vdep::monitor::health
