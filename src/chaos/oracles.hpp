// Invariant oracles: what "the faults were tolerated" means, checked
// mechanically against a completed trial.
//
// Mapping to the paper's claims:
//   exactly-once    — Sec. 3.1's client coordination + reply caching: a
//                     retransmitted request is answered from the reply cache,
//                     never re-executed (checked in replica state via unique
//                     append tokens).
//   view agreement  — the group-communication substrate (Sec. 3.2, Spread):
//                     surviving members share one agreed view of the group.
//   checkpoint      — the checkpointing low-level knob (Sec. 3.3): snapshot
//   monotonicity      ids taken by one replica incarnation only move forward.
//   bounded         — crash-tolerance of the replication styles and of the
//   recovery          Fig. 5 switch protocol: after the last fault lifts, the
//                     workload finishes within a bounded recovery window, and
//                     no KV request is given up by the client coordinator.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chaos/history.hpp"
#include "monitor/health/events.hpp"
#include "net/fault_plan.hpp"
#include "shard/map.hpp"
#include "util/ids.hpp"

namespace vdep::chaos {

// Everything the oracles look at, collected after the trial's kernel has
// drained. Plain data: oracles never touch the live scenario.
struct TrialObservation {
  struct ReplicaState {
    int index = 0;
    bool live = false;        // process alive, replicator running
    bool initialized = true;  // finished joiner state transfer
    bool responder = false;   // would answer clients in the current view
    std::optional<std::uint64_t> view_id;
    std::vector<ProcessId> view_members;
    // Final value of every audited log key on this replica (absent key =
    // no entry). Recorded for dead replicas too: a frozen crashed state must
    // still contain no duplicate.
    std::map<std::string, std::string> logs;
  };

  struct CheckpointEvent {
    int replica = 0;
    std::uint64_t incarnation = 0;  // replicator build counter per replica
    std::uint64_t checkpoint_id = 0;
  };

  std::vector<OpRecord> history;  // all clients, merged
  std::vector<ReplicaState> replicas;
  std::vector<CheckpointEvent> checkpoints;
  // Replica indexes the schedule permanently removed (node kills): exempt
  // from agreement/liveness expectations, still audited for duplicates.
  std::set<int> expected_lost;
  bool all_clients_done = false;
  SimTime finished_at = kTimeZero;   // last client completion (or deadline)
  SimTime last_fault_end = kTimeZero;
  SimTime recovery_bound = sec(12);  // covers the client retry budget (~10 s)
};

struct Verdict {
  std::vector<std::string> failures;
  [[nodiscard]] bool pass() const { return failures.empty(); }
  [[nodiscard]] std::string to_string() const;
  void merge(const Verdict& other);
};

// Each oracle returns the (possibly empty) list of violated invariants.
[[nodiscard]] Verdict check_exactly_once(const TrialObservation& obs);
[[nodiscard]] Verdict check_view_agreement(const TrialObservation& obs);
[[nodiscard]] Verdict check_checkpoint_monotonic(const TrialObservation& obs);
[[nodiscard]] Verdict check_bounded_recovery(const TrialObservation& obs);
// KV trials only: no op completed with an error. The recorded clients send
// only well-formed requests, so an error reply means the coordinator ran out
// of retries. A sharded op may legitimately fail when its router runs out of
// attempts, so shard trials skip this oracle.
[[nodiscard]] Verdict check_no_request_gave_up(const TrialObservation& obs);

// All of the above, merged.
[[nodiscard]] Verdict check_all(const TrialObservation& obs);

// --- sharded trials ------------------------------------------------------------
//
// What a multi-group trial additionally observes: the directory's committed
// map history and, per data group, the serving state a live replica reports.
// Plain data again — collected after the kernel drains.
struct ShardObservation {
  struct GroupState {
    GroupId group;
    bool any_live = false;  // at least one replica serving
    bool frozen = false;    // a live replica still holds a frozen range
    std::vector<shard::KeyRange> owned;        // serving ranges (live replica)
    std::map<std::string, std::string> logs;   // audited log keys present
    std::set<std::string> keys;                // every key in the store
  };

  std::uint64_t initial_epoch = 1;
  shard::ShardMap final_map;                    // directory truth at the end
  std::vector<shard::ShardMap> committed_maps;  // successful migrations, in order
  std::vector<GroupState> groups;
  int migrations_attempted = 0;
  int migrations_committed = 0;
};

// No key is served by two shards in the same epoch: every committed map
// validates and continues the epoch chain, and the final serving ownership
// (live groups' owned ranges) is disjoint and matches the final map exactly.
[[nodiscard]] Verdict check_shard_ownership(const ShardObservation& obs);

// No key is lost or duplicated across a split: every acknowledged append
// token appears exactly once across ALL groups — on the group the final map
// assigns its key to — and acknowledged puts are present at (only) the owner.
[[nodiscard]] Verdict check_shard_migration_integrity(
    const TrialObservation& obs, const ShardObservation& shard_obs);

// --- health plane --------------------------------------------------------------
//
// What a health-enabled trial additionally observes: the deterministic
// HealthEvent stream and the fault schedule it must explain. Plain data.
struct HealthObservation {
  bool enabled = false;
  // Control trial (empty schedule): ANY suspicion or SLO-breach event is a
  // false alarm.
  bool fault_free = false;
  // Every detectable fault must be flagged within this of its strike time.
  SimTime detection_bound = msec(400);
  std::vector<monitor::health::HealthEvent> events;
  std::vector<net::FaultAction> faults;  // the injected schedule, in order
};

// One injected fault carrying a detection obligation, matched against the
// event stream: process crashes must raise kReplicaSuspect for that pid,
// node crashes a kLinkSuspect from the dead host, partitions a kLinkSuspect
// crossing the cut.
struct DetectionRecord {
  std::string fault;  // FaultAction::to_string() of the injected fault
  SimTime injected_at = kTimeZero;
  bool detected = false;
  double latency_ms = 0.0;  // strike -> matching event (when detected)
};

[[nodiscard]] std::vector<DetectionRecord> match_detections(
    const HealthObservation& obs);

// Detection-latency oracle: every crash/partition flagged within the bound,
// and fault-free control trials raise no alarm at all.
[[nodiscard]] Verdict check_detection(const HealthObservation& obs);

}  // namespace vdep::chaos
