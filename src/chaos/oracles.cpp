#include "chaos/oracles.hpp"

#include <algorithm>
#include <map>

namespace vdep::chaos {

namespace {

// "[c3#17]" -> 17 (SIZE_MAX on malformed tokens, which the issued-set check
// reports separately).
std::uint64_t token_seq(const std::string& token) {
  const std::size_t hash = token.find('#');
  if (hash == std::string::npos) return UINT64_MAX;
  try {
    return std::stoull(token.substr(hash + 1));
  } catch (...) {
    return UINT64_MAX;
  }
}

std::string replica_tag(const TrialObservation::ReplicaState& r) {
  return "replica" + std::to_string(r.index);
}

}  // namespace

std::string Verdict::to_string() const {
  if (failures.empty()) return "PASS";
  std::string out;
  for (const auto& f : failures) {
    out += f;
    out += '\n';
  }
  return out;
}

void Verdict::merge(const Verdict& other) {
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
}

Verdict check_exactly_once(const TrialObservation& obs) {
  Verdict v;

  // What each client actually issued and what it saw acknowledged.
  std::map<std::string, std::set<std::string>> issued;  // log key -> tokens
  std::map<std::string, std::vector<std::string>> acked;  // log key -> tokens, issue order
  for (const auto& op : obs.history) {
    if (op.op != "append") continue;
    issued[op.key].insert(op.token);
    if (op.completed_at && op.ok) acked[op.key].push_back(op.token);
  }

  // Safety, audited on every replica including crashed/stale ones: no
  // phantom tokens, no duplicates, per-client order preserved.
  for (const auto& rep : obs.replicas) {
    for (const auto& [key, value] : rep.logs) {
      const auto tokens = parse_tokens(value);
      std::set<std::string> seen;
      std::uint64_t prev_seq = 0;
      bool first = true;
      for (const auto& token : tokens) {
        auto it = issued.find(key);
        if (it == issued.end() || !it->second.contains(token)) {
          v.failures.push_back("exactly-once: " + replica_tag(rep) + " " + key +
                               " holds token " + token + " that was never issued");
          continue;
        }
        if (!seen.insert(token).second) {
          v.failures.push_back("exactly-once: " + replica_tag(rep) + " " + key +
                               " executed " + token + " twice");
        }
        const std::uint64_t seq = token_seq(token);
        if (!first && seq <= prev_seq) {
          v.failures.push_back("exactly-once: " + replica_tag(rep) + " " + key +
                               " order violation at " + token);
        }
        prev_seq = seq;
        first = false;
      }
    }
  }

  // Completeness, on the replicas that answer clients: every acknowledged
  // append must be in the state the group would serve from.
  for (const auto& rep : obs.replicas) {
    if (!rep.live || !rep.initialized || !rep.responder ||
        obs.expected_lost.contains(rep.index)) {
      continue;
    }
    for (const auto& [key, tokens] : acked) {
      const auto log_it = rep.logs.find(key);
      const std::string empty;
      const std::string& value = log_it == rep.logs.end() ? empty : log_it->second;
      for (const auto& token : tokens) {
        if (value.find(token) == std::string::npos) {
          v.failures.push_back("exactly-once: acked " + token + " missing from " +
                               replica_tag(rep) + " " + key);
        }
      }
    }
  }
  return v;
}

Verdict check_view_agreement(const TrialObservation& obs) {
  Verdict v;
  const TrialObservation::ReplicaState* reference = nullptr;
  for (const auto& rep : obs.replicas) {
    if (!rep.live || !rep.initialized || obs.expected_lost.contains(rep.index)) continue;
    if (!rep.view_id.has_value()) {
      v.failures.push_back("view-agreement: " + replica_tag(rep) + " has no view");
      continue;
    }
    if (reference == nullptr) {
      reference = &rep;
      continue;
    }
    if (rep.view_id != reference->view_id ||
        rep.view_members != reference->view_members) {
      v.failures.push_back(
          "view-agreement: " + replica_tag(rep) + " view " +
          std::to_string(*rep.view_id) + " (" +
          std::to_string(rep.view_members.size()) + " members) != " +
          replica_tag(*reference) + " view " + std::to_string(*reference->view_id) +
          " (" + std::to_string(reference->view_members.size()) + " members)");
    }
  }
  return v;
}

Verdict check_checkpoint_monotonic(const TrialObservation& obs) {
  Verdict v;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> last;
  for (const auto& event : obs.checkpoints) {
    const auto key = std::pair{event.replica, event.incarnation};
    auto it = last.find(key);
    if (it != last.end() && event.checkpoint_id <= it->second) {
      v.failures.push_back("checkpoint-monotonicity: replica" +
                           std::to_string(event.replica) + " id " +
                           std::to_string(event.checkpoint_id) + " after " +
                           std::to_string(it->second));
    }
    last[key] = event.checkpoint_id;
  }
  return v;
}

Verdict check_bounded_recovery(const TrialObservation& obs) {
  Verdict v;
  bool any_serving = false;
  for (const auto& rep : obs.replicas) {
    if (rep.live && rep.initialized && !obs.expected_lost.contains(rep.index)) {
      any_serving = true;
    }
  }
  if (!any_serving) {
    v.failures.push_back("liveness: no serving replica survived the schedule");
  }
  if (!obs.all_clients_done) {
    v.failures.push_back("liveness: workload did not complete before the deadline");
    return v;
  }
  if (obs.finished_at > obs.last_fault_end + obs.recovery_bound) {
    v.failures.push_back(
        "liveness: recovery exceeded bound (finished " +
        std::to_string(to_usec(obs.finished_at - obs.last_fault_end) / 1000) +
        " ms after the last fault)");
  }
  return v;
}

Verdict check_no_request_gave_up(const TrialObservation& obs) {
  Verdict v;
  for (const auto& op : obs.history) {
    if (op.completed_at && !op.ok) {
      v.failures.push_back("liveness: client" + std::to_string(op.client) + " request " +
                           std::to_string(op.seq) + " gave up");
    }
  }
  return v;
}

Verdict check_all(const TrialObservation& obs) {
  Verdict v = check_exactly_once(obs);
  v.merge(check_view_agreement(obs));
  v.merge(check_checkpoint_monotonic(obs));
  v.merge(check_bounded_recovery(obs));
  v.merge(check_no_request_gave_up(obs));
  return v;
}

namespace {

std::string group_tag(GroupId group) {
  return "group" + std::to_string(group.value());
}

// True iff `target` is fully covered by the (sorted, disjoint) `owned` set.
bool ranges_cover(const std::vector<shard::KeyRange>& owned,
                  const shard::KeyRange& target) {
  std::uint64_t need = target.lo;
  for (const auto& r : owned) {
    if (r.hi < need || r.lo > target.hi) continue;
    if (r.lo > need) return false;  // gap before `need`
    need = static_cast<std::uint64_t>(r.hi) + 1;
    if (need > target.hi) return true;
  }
  return need > target.hi;
}

bool ranges_overlap(const shard::KeyRange& a, const shard::KeyRange& b) {
  return a.lo <= b.hi && b.lo <= a.hi;
}

}  // namespace

Verdict check_shard_ownership(const ShardObservation& obs) {
  Verdict v;
  std::string why;

  // Directory history: every committed map is a valid full partition of the
  // key space, and the epochs advance by exactly one per commit.
  std::uint64_t expected_epoch = obs.initial_epoch;
  for (const auto& map : obs.committed_maps) {
    ++expected_epoch;
    if (map.epoch() != expected_epoch) {
      v.failures.push_back("shard-ownership: committed epoch " +
                           std::to_string(map.epoch()) + " where " +
                           std::to_string(expected_epoch) + " was expected");
    }
    if (!map.validate(&why)) {
      v.failures.push_back("shard-ownership: committed map epoch " +
                           std::to_string(map.epoch()) + " invalid: " + why);
    }
  }
  if (!obs.final_map.validate(&why)) {
    v.failures.push_back("shard-ownership: final map invalid: " + why);
  }
  if (obs.final_map.epoch() != expected_epoch) {
    v.failures.push_back("shard-ownership: directory epoch " +
                         std::to_string(obs.final_map.epoch()) +
                         " != last committed epoch " +
                         std::to_string(expected_epoch));
  }
  if (obs.migrations_attempted != obs.migrations_committed) {
    v.failures.push_back(
        "shard-ownership: " +
        std::to_string(obs.migrations_attempted - obs.migrations_committed) +
        " migration(s) did not commit");
  }

  // Serving state vs the final map. Within one epoch a key has exactly one
  // serving group: live groups' owned ranges must be pairwise disjoint and
  // coincide with the final map's assignment.
  for (const auto& g : obs.groups) {
    if (!g.any_live) continue;
    if (g.frozen) {
      v.failures.push_back("shard-ownership: " + group_tag(g.group) +
                           " still frozen after the trial drained");
    }
    const auto assigned = obs.final_map.ranges_of(g.group);
    for (const auto& r : g.owned) {
      if (!ranges_cover(assigned, r)) {
        v.failures.push_back("shard-ownership: " + group_tag(g.group) +
                             " serves " + r.str() +
                             " which the final map does not assign to it");
      }
    }
    for (const auto& r : assigned) {
      if (!ranges_cover(g.owned, r)) {
        v.failures.push_back("shard-ownership: " + group_tag(g.group) +
                             " does not serve assigned range " + r.str());
      }
    }
  }
  for (std::size_t a = 0; a < obs.groups.size(); ++a) {
    if (!obs.groups[a].any_live) continue;
    for (std::size_t b = a + 1; b < obs.groups.size(); ++b) {
      if (!obs.groups[b].any_live) continue;
      for (const auto& ra : obs.groups[a].owned) {
        for (const auto& rb : obs.groups[b].owned) {
          if (ranges_overlap(ra, rb)) {
            v.failures.push_back(
                "shard-ownership: " + ra.str() + " served by both " +
                group_tag(obs.groups[a].group) + " and " +
                group_tag(obs.groups[b].group) + " in epoch " +
                std::to_string(obs.final_map.epoch()));
          }
        }
      }
    }
  }
  return v;
}

Verdict check_shard_migration_integrity(const TrialObservation& obs,
                                        const ShardObservation& shard_obs) {
  Verdict v;

  // What each client issued / saw acknowledged, per log key.
  std::map<std::string, std::set<std::string>> issued;
  std::map<std::string, std::vector<std::string>> acked;
  for (const auto& op : obs.history) {
    if (op.op != "append") continue;
    issued[op.key].insert(op.token);
    if (op.completed_at && op.ok) acked[op.key].push_back(op.token);
  }

  // Token census across every group: a split must move each token exactly
  // once, never duplicate it, and leave it on the group the final map owns
  // the key on.
  for (const auto& [key, tokens] : issued) {
    const shard::ShardEntry* owner_entry = shard_obs.final_map.lookup_key(key);
    const GroupId owner =
        owner_entry != nullptr ? owner_entry->group : GroupId{0};
    bool owner_live = false;
    std::map<std::string, int> found;  // token -> occurrences across groups
    for (const auto& g : shard_obs.groups) {
      if (!g.any_live) continue;
      if (g.group == owner) owner_live = true;
      const auto it = g.logs.find(key);
      if (it == g.logs.end()) continue;
      std::set<std::string> in_this_group;
      for (const auto& token : parse_tokens(it->second)) {
        if (!tokens.contains(token)) {
          v.failures.push_back("shard-integrity: " + group_tag(g.group) + " " +
                               key + " holds token " + token +
                               " that was never issued");
          continue;
        }
        if (!in_this_group.insert(token).second) {
          v.failures.push_back("shard-integrity: " + group_tag(g.group) + " " +
                               key + " executed " + token + " twice");
        }
        ++found[token];
      }
      if (g.group != owner && !in_this_group.empty()) {
        v.failures.push_back("shard-integrity: " + group_tag(g.group) +
                             " still holds " + key +
                             " which the final map assigns to " +
                             group_tag(owner));
      }
    }
    for (const auto& [token, count] : found) {
      if (count > 1) {
        v.failures.push_back("shard-integrity: token " + token +
                             " duplicated across " + std::to_string(count) +
                             " groups");
      }
    }
    if (owner_live) {
      for (const auto& token : acked[key]) {
        if (found.find(token) == found.end()) {
          v.failures.push_back("shard-integrity: acked " + token +
                               " lost (missing from every group)");
        }
      }
    }
  }

  // Acked puts: the key must exist at the owner and nowhere else.
  std::set<std::string> acked_puts;
  for (const auto& op : obs.history) {
    if (op.op == "put" && op.completed_at && op.ok) acked_puts.insert(op.key);
  }
  for (const auto& key : acked_puts) {
    const shard::ShardEntry* owner_entry = shard_obs.final_map.lookup_key(key);
    if (owner_entry == nullptr) continue;
    for (const auto& g : shard_obs.groups) {
      if (!g.any_live) continue;
      const bool present = g.keys.contains(key);
      if (g.group == owner_entry->group && !present) {
        v.failures.push_back("shard-integrity: acked put key " + key +
                             " lost from owner " + group_tag(g.group));
      }
      if (g.group != owner_entry->group && present) {
        v.failures.push_back("shard-integrity: key " + key +
                             " present on non-owner " + group_tag(g.group));
      }
    }
  }
  return v;
}

// --- health plane --------------------------------------------------------------

namespace {

using monitor::health::HealthEvent;
using monitor::health::HealthEventKind;

bool is_alarm(HealthEventKind kind) {
  return kind == HealthEventKind::kReplicaSuspect ||
         kind == HealthEventKind::kLinkSuspect ||
         kind == HealthEventKind::kSloLatencyBreach ||
         kind == HealthEventKind::kSloAvailabilityBreach;
}

bool requires_detection(const net::FaultAction& action) {
  return action.kind == net::FaultAction::Kind::kCrashProcess ||
         action.kind == net::FaultAction::Kind::kCrashNode ||
         action.kind == net::FaultAction::Kind::kPartition;
}

bool event_matches_fault(const HealthEvent& event, const net::FaultAction& action) {
  switch (action.kind) {
    case net::FaultAction::Kind::kCrashProcess:
      // The daemon co-located with the process observes the crash directly.
      return event.kind == HealthEventKind::kReplicaSuspect &&
             event.id_a == action.pid.value();
    case net::FaultAction::Kind::kCrashNode:
      // The host's daemon dies with it; its heartbeats silence and peers'
      // phi-accrual detectors suspect every link from the dead host.
      return event.kind == HealthEventKind::kLinkSuspect &&
             event.id_a == action.node.value();
    case net::FaultAction::Kind::kPartition: {
      if (event.kind != HealthEventKind::kLinkSuspect) return false;
      const NodeId from{event.id_a};
      const NodeId observer{event.id_b};
      return (action.side_a.contains(from) && action.side_b.contains(observer)) ||
             (action.side_b.contains(from) && action.side_a.contains(observer));
    }
    default:
      // Loss bursts, slow hosts and the restart/restore halves carry no
      // detection obligation (they may or may not silence a link).
      return false;
  }
}

}  // namespace

std::vector<DetectionRecord> match_detections(const HealthObservation& obs) {
  std::vector<DetectionRecord> records;
  if (!obs.enabled) return records;
  for (const auto& action : obs.faults) {
    if (!requires_detection(action)) continue;
    DetectionRecord rec;
    rec.fault = action.to_string();
    rec.injected_at = action.at;
    for (const auto& event : obs.events) {
      if (event.at < action.at || event.at > action.at + obs.detection_bound) continue;
      if (!event_matches_fault(event, action)) continue;
      rec.detected = true;
      rec.latency_ms = to_msec(event.at - action.at);
      break;  // events are in emission (time) order: first match is earliest
    }
    records.push_back(std::move(rec));
  }
  return records;
}

Verdict check_detection(const HealthObservation& obs) {
  Verdict v;
  if (!obs.enabled) return v;
  if (obs.fault_free) {
    for (const auto& event : obs.events) {
      if (is_alarm(event.kind)) {
        v.failures.push_back(
            "health: false alarm in fault-free trial: " +
            std::string(to_string(event.kind)) + " " + event.subject + " at " +
            std::to_string(to_msec(event.at)) + " ms");
      }
    }
    return v;
  }
  for (const auto& rec : match_detections(obs)) {
    if (!rec.detected) {
      v.failures.push_back("health: fault not detected within " +
                           std::to_string(to_msec(obs.detection_bound)) +
                           " ms: " + rec.fault);
    }
  }
  return v;
}

}  // namespace vdep::chaos
