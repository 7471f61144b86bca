#include "monitor/threshold_watcher.hpp"

#include "util/assert.hpp"

namespace vdep::monitor {

ThresholdWatcher::ThresholdWatcher(double low, double high, SimTime min_dwell)
    : low_(low), high_(high), min_dwell_(min_dwell) {
  VDEP_ASSERT_MSG(low < high, "hysteresis needs low < high");
}

std::optional<ThresholdWatcher::State> ThresholdWatcher::update(SimTime now,
                                                                double value) {
  if (transitioned_once_ && now - last_transition_ < min_dwell_) return std::nullopt;

  if (state_ == State::kLow && value > high_) {
    state_ = State::kHigh;
  } else if (state_ == State::kHigh && value < low_) {
    state_ = State::kLow;
  } else {
    return std::nullopt;
  }
  last_transition_ = now;
  transitioned_once_ = true;
  return state_;
}

}  // namespace vdep::monitor
