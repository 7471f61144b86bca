#include "knobs/availability.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace vdep::knobs {

SimTime failover_time(replication::ReplicationStyle style,
                      const AvailabilityModel& model,
                      const std::optional<CheckpointProfile>& profile) {
  using replication::ReplicationStyle;
  switch (style) {
    case ReplicationStyle::kActive: return model.active_failover;
    case ReplicationStyle::kSemiActive:
    case ReplicationStyle::kHybrid: return model.semi_active_failover;
    case ReplicationStyle::kWarmPassive:
    case ReplicationStyle::kColdPassive:
      break;
  }
  if (!profile) {
    return style == ReplicationStyle::kWarmPassive ? model.warm_failover
                                                   : model.cold_failover;
  }
  const double ratio = std::clamp(profile->average_ratio(), 0.0, 1.0);
  const double warm = to_sec(model.warm_failover);
  if (style == ReplicationStyle::kWarmPassive) return sec_f(warm * ratio);
  // Launch/install dominates and is checkpoint-size-independent here (the
  // snapshot still transfers in full on promotion); only the replay tail
  // — bounded by backup staleness, the warm component — shrinks.
  return sec_f(std::max(to_sec(model.cold_failover) - warm, 0.0) + warm * ratio);
}

double predicted_availability(const Configuration& config, const AvailabilityModel& model,
                              const std::optional<CheckpointProfile>& profile) {
  VDEP_ASSERT(config.replicas >= 1);
  const double mttf = to_sec(model.mttf);
  const double mttr = to_sec(model.mttr);
  const double rho = mttr / (mttf + mttr);

  // All replicas down simultaneously.
  double unavailability = std::pow(rho, config.replicas);

  // Failover blackout: whenever the responding replica fails and a standby
  // takes over, clients see a style-dependent outage. With k replicas the
  // responder fails at rate 1/MTTF; outages only occur while a standby
  // exists (k >= 2; with k == 1 the full-down term already covers it).
  if (config.replicas >= 2) {
    unavailability += to_sec(failover_time(config.style, model, profile)) / mttf;
  }

  return std::clamp(1.0 - unavailability, 0.0, 1.0);
}

std::optional<AvailabilityChoice> choose_for_availability(
    double target, const AvailabilityModel& model,
    const std::optional<CheckpointProfile>& profile, int max_replicas,
    std::vector<replication::ReplicationStyle> allowed) {
  using replication::ReplicationStyle;
  if (allowed.empty()) {
    // Frugality order: cold cheapest in steady state, then warm, semi-active,
    // active.
    allowed = {ReplicationStyle::kColdPassive, ReplicationStyle::kWarmPassive,
               ReplicationStyle::kSemiActive, ReplicationStyle::kActive};
  }
  for (int k = 1; k <= max_replicas; ++k) {
    for (ReplicationStyle style : allowed) {
      const Configuration config{style, k};
      const double a = predicted_availability(config, model, profile);
      if (a >= target) return AvailabilityChoice{config, a};
    }
  }
  return std::nullopt;
}

}  // namespace vdep::knobs
