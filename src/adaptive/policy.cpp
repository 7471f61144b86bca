#include "adaptive/policy.hpp"

namespace vdep::adaptive {

namespace {
constexpr double kBurnDegraded = 1.0;  // slo_burn at/above this degrades
constexpr double kPhiDegraded = 8.0;   // max_phi at/above this degrades
constexpr SimTime kMinDwell = msec(500);  // least time between a degrade and recovery
}  // namespace

RateThresholdPolicy::RateThresholdPolicy(Config config)
    : watcher_(config.low_rate, config.high_rate, config.min_dwell) {}

std::optional<replication::ReplicationStyle> RateThresholdPolicy::evaluate(
    const Signals& s) {
  auto transition = watcher_.update(s.now, s.request_rate);
  if (!transition) return std::nullopt;
  return *transition == monitor::ThresholdWatcher::State::kHigh
             ? replication::ReplicationStyle::kActive
             : replication::ReplicationStyle::kWarmPassive;
}

std::optional<replication::ReplicationStyle> HealthThresholdPolicy::evaluate(
    const Signals& s) {
  const bool at_risk = s.slo_burn >= kBurnDegraded || s.max_phi >= kPhiDegraded ||
                       s.suspected_replicas > 0;
  if (at_risk == degraded_) return std::nullopt;
  // Degrading is urgent (dependability is at risk now); recovering respects
  // the dwell so a clearing-then-reappearing signal cannot thrash.
  if (!at_risk && transitioned_once_ && s.now - last_transition_ < kMinDwell) {
    return std::nullopt;
  }
  degraded_ = at_risk;
  transitioned_once_ = true;
  last_transition_ = s.now;
  return degraded_ ? replication::ReplicationStyle::kActive
                   : replication::ReplicationStyle::kWarmPassive;
}

std::optional<replication::ReplicationStyle> ModePolicy::evaluate(const Signals&) {
  return mode_ == Mode::kMissionCritical ? replication::ReplicationStyle::kActive
                                         : replication::ReplicationStyle::kWarmPassive;
}

}  // namespace vdep::adaptive
