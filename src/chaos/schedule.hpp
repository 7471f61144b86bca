// Seeded fault-schedule generation for chaos campaigns.
//
// Draws a random net::FaultPlan from a fault budget (how many actions of
// each family) against a scenario's topology. The generator is constrained
// so that, absent a real bug, every schedule is *survivable by design*:
//
//  - Crash/restart pairs target replica processes only, one at a time, so
//    at least one replica is always up; the harness's auto-recovery rejoins
//    the restarted replica with a state transfer.
//  - Node kills are permanent losses, capped below the replica count so the
//    group always retains a serving member.
//  - Loss bursts and partitions are kept shorter than the failure
//    detector's expulsion threshold (500 ms of silence) and separated by
//    quiet gaps, so heartbeats deterministically prevent false suspicion —
//    transient faults stay transient.
//  - Slow-host windows are performance faults; they may overlap anything.
//
// Clients (and their hosts, which carry the group-communication leader) are
// never faulted: the paper's fault model targets the replicated server side.
#pragma once

#include "net/fault_plan.hpp"
#include "util/rng.hpp"

namespace vdep::harness {
class Scenario;
}

namespace vdep::chaos {

// Timing and strength envelope of every generated schedule.
inline constexpr SimTime kWindowStart = msec(300);  // first fault strikes at/after this
inline constexpr SimTime kMinWindow = msec(100);    // windowed fault duration bounds
inline constexpr SimTime kMaxWindow = msec(400);    // < detector threshold (500 ms)
inline constexpr SimTime kMinGap = msec(200);       // quiet gap between silencing faults
inline constexpr SimTime kMinDown = msec(150);      // crash -> restart delay bounds
inline constexpr SimTime kMaxDown = msec(400);
inline constexpr double kMinLoss = 0.4;  // loss-burst probability bounds
inline constexpr double kMaxLoss = 1.0;
inline constexpr double kMinSlow = 2.0;  // slow-host factor bounds
inline constexpr double kMaxSlow = 8.0;

// Fault budget for one generated schedule.
struct SchedulePolicy {
  int crash_recoveries = 1;  // crash+restart pairs on replica processes
  int node_kills = 0;        // permanent replica-host losses
  int loss_bursts = 2;
  int partitions = 1;
  int slow_hosts = 1;

  [[nodiscard]] int total_actions() const {
    return crash_recoveries + node_kills + loss_bursts + partitions + slow_hosts;
  }
};

// Generates a schedule for `scenario`'s topology. Deterministic in (rng
// state, policy, topology). The same rng must not be shared with the
// simulation kernel, or the schedule would perturb the run it scripts.
[[nodiscard]] net::FaultPlan generate_schedule(Rng& rng, const SchedulePolicy& policy,
                                               const harness::Scenario& scenario);

}  // namespace vdep::chaos
