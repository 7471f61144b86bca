#include "knobs/availability.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace vdep::knobs {

namespace {
constexpr int kMaxReplicas = 5;
}  // namespace

SimTime failover_time(replication::ReplicationStyle style, const AvailabilityModel& model) {
  using replication::ReplicationStyle;
  switch (style) {
    case ReplicationStyle::kActive: return model.active_failover;
    case ReplicationStyle::kSemiActive:
    case ReplicationStyle::kHybrid: return model.semi_active_failover;
    case ReplicationStyle::kWarmPassive: return model.warm_failover;
    case ReplicationStyle::kColdPassive: break;
  }
  return model.cold_failover;
}

double predicted_availability(const Configuration& config, const AvailabilityModel& model) {
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
    unavailability += to_sec(failover_time(config.style, model)) / mttf;
  }

  return std::clamp(1.0 - unavailability, 0.0, 1.0);
}

std::optional<AvailabilityChoice> choose_for_availability(double target,
                                                         const AvailabilityModel& model) {
  using replication::ReplicationStyle;
  // Frugality order: cold cheapest in steady state, then warm, semi-active,
  // active.
  constexpr ReplicationStyle kByFrugality[] = {
      ReplicationStyle::kColdPassive, ReplicationStyle::kWarmPassive,
      ReplicationStyle::kSemiActive, ReplicationStyle::kActive};
  for (int k = 1; k <= kMaxReplicas; ++k) {
    for (ReplicationStyle style : kByFrugality) {
      const Configuration config{style, k};
      const double a = predicted_availability(config, model);
      if (a >= target) return AvailabilityChoice{config, a};
    }
  }
  return std::nullopt;
}

}  // namespace vdep::knobs
