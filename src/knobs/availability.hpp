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
#include <vector>

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

// Style-dependent failover outage. A measured incremental-checkpoint
// profile shrinks the passive styles' outages: cheaper checkpoints let a
// passive primary checkpoint more often at the same blackout budget, which
// shrinks backup staleness and therefore the replay component of failover in
// proportion to the profile's average byte ratio:
//   warm' = warm * ratio
//   cold' = (cold - warm) + warm * ratio   (the launch part does not shrink)
// Active/semi-active failovers involve no checkpoints and are unchanged.
// Without a profile every style takes the model's failover time as it is.
[[nodiscard]] SimTime failover_time(replication::ReplicationStyle style,
                                    const AvailabilityModel& model,
                                    const std::optional<CheckpointProfile>& profile = {});

// Steady-state availability of a configuration under the model, with the
// failover outages above.
[[nodiscard]] double predicted_availability(
    const Configuration& config, const AvailabilityModel& model,
    const std::optional<CheckpointProfile>& profile = {});

struct AvailabilityChoice {
  Configuration config;
  double availability = 0.0;
};

// Picks the cheapest configuration meeting `target` (e.g. 0.999): fewest
// replicas first, then the most resource-frugal style. Styles considered are
// those present in `allowed` (defaults to all four). With a profile, passive
// styles are evaluated with the rescaled failover outages: a good delta
// profile can make warm passive meet a target that previously forced an
// active configuration.
[[nodiscard]] std::optional<AvailabilityChoice> choose_for_availability(
    double target, const AvailabilityModel& model,
    const std::optional<CheckpointProfile>& profile = {}, int max_replicas = 5,
    std::vector<replication::ReplicationStyle> allowed = {});

}  // namespace vdep::knobs
