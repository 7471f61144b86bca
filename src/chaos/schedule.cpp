#include "chaos/schedule.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "harness/scenario.hpp"

namespace vdep::chaos {

namespace {

enum class Slot { kCrashRecovery, kNodeKill, kLossBurst, kPartition, kSlowHost };

SimTime uniform_time(Rng& rng, SimTime lo, SimTime hi) {
  if (hi <= lo) return lo;
  return SimTime{rng.range(lo.count(), hi.count())};
}

}  // namespace

net::FaultPlan generate_schedule(Rng& rng, const SchedulePolicy& policy,
                                 const harness::Scenario& scenario) {
  const int replicas = scenario.config().replicas;
  const int clients = scenario.config().clients;

  // Every fault family gets a slot; the shuffled slot order is the schedule's
  // coarse shape, then each slot is placed sequentially with quiet gaps in
  // between so silencing faults never accumulate into a false suspicion.
  std::vector<Slot> slots;
  // A kill removes a replica for good: keep at least one alive, and one more
  // in reserve when crash/recovery windows can take another down transiently.
  const int kill_cap = std::max(0, replicas - 1 - (policy.crash_recoveries > 0 ? 1 : 0));
  const int kills = std::min(policy.node_kills, kill_cap);
  for (int i = 0; i < policy.crash_recoveries; ++i) slots.push_back(Slot::kCrashRecovery);
  for (int i = 0; i < kills; ++i) slots.push_back(Slot::kNodeKill);
  for (int i = 0; i < policy.loss_bursts; ++i) slots.push_back(Slot::kLossBurst);
  for (int i = 0; i < policy.partitions; ++i) slots.push_back(Slot::kPartition);
  for (int i = 0; i < policy.slow_hosts; ++i) slots.push_back(Slot::kSlowHost);
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.below(i)]);
  }

  // Hosts the faults may touch: replica machines, plus client machines for
  // communication faults (the leader daemon lives there, so loss/partition
  // on those links exercises the request path).
  std::vector<NodeId> replica_hosts;
  for (int r = 0; r < replicas; ++r) replica_hosts.push_back(scenario.replica_host(r));
  std::vector<NodeId> all_hosts;
  for (int c = 0; c < clients; ++c) all_hosts.push_back(scenario.client_host(c));
  all_hosts.insert(all_hosts.end(), replica_hosts.begin(), replica_hosts.end());

  net::FaultPlan plan;
  std::set<int> killed;  // replica indexes permanently lost
  SimTime cursor = kWindowStart;

  auto pick_survivor = [&](Rng& r) {
    // A replica index that is not permanently gone.
    std::vector<int> alive;
    for (int i = 0; i < replicas; ++i) {
      if (!killed.contains(i)) alive.push_back(i);
    }
    return alive[r.below(alive.size())];
  };

  for (Slot slot : slots) {
    const SimTime at = cursor + uniform_time(rng, kTimeZero, kMinGap);
    switch (slot) {
      case Slot::kCrashRecovery: {
        const int victim = pick_survivor(rng);
        const SimTime down = uniform_time(rng, kMinDown, kMaxDown);
        plan.crash_process(at, scenario.replica_pid(victim));
        plan.restart_process(at + down, scenario.replica_pid(victim));
        cursor = at + down + kMinGap;
        break;
      }
      case Slot::kNodeKill: {
        const int victim = pick_survivor(rng);
        killed.insert(victim);
        plan.crash_node(at, scenario.replica_host(victim));
        cursor = at + kMinGap;
        break;
      }
      case Slot::kLossBurst: {
        const SimTime dur = uniform_time(rng, kMinWindow, kMaxWindow);
        const std::size_t a = rng.below(all_hosts.size());
        std::size_t b = rng.below(all_hosts.size() - 1);
        if (b >= a) ++b;
        plan.loss_burst(at, at + dur, all_hosts[a], all_hosts[b],
                        rng.uniform(kMinLoss, kMaxLoss));
        cursor = at + dur + kMinGap;
        break;
      }
      case Slot::kPartition: {
        const SimTime dur = uniform_time(rng, kMinWindow, kMaxWindow);
        // Far side: a nonempty subset of replica hosts; near side: everything
        // else. Isolating every replica is allowed — the window is shorter
        // than both the suspicion threshold and the clients' retry budget.
        std::set<NodeId> far;
        for (NodeId h : replica_hosts) {
          if (rng.chance(0.5)) far.insert(h);
        }
        if (far.empty()) far.insert(replica_hosts[rng.below(replica_hosts.size())]);
        std::set<NodeId> near;
        for (NodeId h : all_hosts) {
          if (!far.contains(h)) near.insert(h);
        }
        if (near.empty()) break;  // degenerate single-host topologies
        plan.partition_window(at, at + dur, far, near);
        cursor = at + dur + kMinGap;
        break;
      }
      case Slot::kSlowHost: {
        const SimTime dur = uniform_time(rng, kMinWindow, kMaxWindow);
        plan.slow_host(at, at + dur, all_hosts[rng.below(all_hosts.size())],
                       rng.uniform(kMinSlow, kMaxSlow));
        // Performance faults silence nobody; no quiet gap needed, but the
        // cursor still advances so schedules stay spread out.
        cursor = at + dur;
        break;
      }
    }
  }
  return plan;
}

}  // namespace vdep::chaos
