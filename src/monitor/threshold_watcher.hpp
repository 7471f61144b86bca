// Hysteresis thresholding.
//
// The Fig. 6 adaptation policy switches replication style "whenever the
// request rate increases above a certain threshold". ThresholdWatcher turns
// the observed rate into stable high/low state transitions with hysteresis
// and a minimum dwell time, so measurement jitter near the threshold cannot
// make the system thrash between styles.
#pragma once

#include <optional>

#include "util/time.hpp"

namespace vdep::monitor {

class ThresholdWatcher {
 public:
  enum class State { kLow, kHigh };

  // Rising edge at `high`, falling at `low` (low < high), transitions at
  // least `min_dwell` apart.
  ThresholdWatcher(double low, double high, SimTime min_dwell);

  // Feeds a sample; returns the new state if a transition fired.
  std::optional<State> update(SimTime now, double value);

  [[nodiscard]] State state() const { return state_; }

 private:
  double low_;
  double high_;
  SimTime min_dwell_;
  State state_ = State::kLow;
  SimTime last_transition_ = kTimeZero;
  bool transitioned_once_ = false;
};

}  // namespace vdep::monitor
