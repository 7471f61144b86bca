// The availability knob — one of the "other high-level knobs such as
// availability, reliability, sustained throughput" the paper's discussion
// says can be implemented the same way (Sec. 5).
//
// Uses a standard steady-state model for a group of k crash-restart
// replicas, each with MTTF/MTTR, plus a style-dependent failover outage
// (active/semi-active fail over almost instantly; warm passive replays its
// log; cold passive additionally pays the launch delay):
//
//   per-replica unavailability  rho = MTTR / (MTTF + MTTR)
//   P(all k down)               rho^k
//   failover outage fraction    (k / MTTF) * failover_time   [primary styles]
//
// The knob inverts the model: given a target availability it picks the
// cheapest {style, replicas} meeting it, preferring fewer replicas and more
// resource-frugal styles among ties.
#pragma once

#include <optional>

#include "knobs/design_space.hpp"
#include "util/time.hpp"

namespace vdep::knobs {

struct AvailabilityModel {
  SimTime mttf = sec(3600);         // per-replica mean time to failure
  SimTime mttr = sec(60);           // per-replica repair/restart time
  SimTime active_failover = msec(1);
  SimTime semi_active_failover = msec(5);
  SimTime warm_failover = msec(200);     // log replay
  SimTime cold_failover = msec(1000);    // launch + install + replay
};

// Style-dependent failover outage, as the model states it (hybrid fails
// over like semi-active: its active core takes over at once).
[[nodiscard]] SimTime failover_time(replication::ReplicationStyle style,
                                    const AvailabilityModel& model);

// Steady-state availability of a configuration under the model, with the
// failover outages above.
[[nodiscard]] double predicted_availability(const Configuration& config,
                                            const AvailabilityModel& model);

struct AvailabilityChoice {
  Configuration config;
  double availability = 0.0;
};

// Picks the cheapest configuration meeting `target` (e.g. 0.999) with at
// most five replicas: fewest replicas first, then the most resource-frugal
// style (cold passive, warm passive, semi-active, active). Hybrid is not
// considered: the model gives it semi-active's failover, so it could only
// tie with semi-active, and its active-core size is not part of a
// Configuration.
[[nodiscard]] std::optional<AvailabilityChoice> choose_for_availability(
    double target, const AvailabilityModel& model);

}  // namespace vdep::knobs
