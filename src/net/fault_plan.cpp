#include "net/fault_plan.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"
#include "util/wire.hpp"

namespace vdep::net {

namespace {

sim::Process* find_process(const std::vector<sim::Process*>& processes, ProcessId pid) {
  for (auto* p : processes) {
    if (p->id() == pid) return p;
  }
  return nullptr;
}

std::string time_str(SimTime t) { return std::to_string(to_usec(t) / 1000.0) + "ms"; }

std::string set_str(const std::set<NodeId>& s) {
  std::string out = "{";
  for (NodeId n : s) {
    if (out.size() > 1) out += ",";
    out += n.str();
  }
  return out + "}";
}

// Shared interpreter state for windowed faults, so overlapping windows
// compose: partitions stay cut until the last covering window lifts, loss
// probabilities and slowdown factors take the max over active windows.
// `touched_*` hold every pair/host the plan can affect; on each transition
// the full fault overlay is recomputed from the still-active windows, which
// restores lifted faults to the clean defaults (loss 0, slowdown 1).
struct ArmRuntime {
  std::vector<FaultAction> active;            // windowed actions currently in force
  std::set<std::pair<NodeId, NodeId>> touched_loss;
  std::set<NodeId> touched_slow;

  void apply(Network& net) const {
    net.heal_partitions();
    std::map<std::pair<NodeId, NodeId>, double> loss;
    std::map<NodeId, double> slow;
    for (const auto& a : active) {
      switch (a.kind) {
        case FaultAction::Kind::kPartition:
          net.partition(a.side_a, a.side_b);
          break;
        case FaultAction::Kind::kLossBurst:
          for (auto [x, y] : {std::pair{a.node, a.peer}, std::pair{a.peer, a.node}}) {
            auto& p = loss[{x, y}];
            p = std::max(p, a.value);
          }
          break;
        case FaultAction::Kind::kSlowHost: {
          auto& f = slow[a.node];
          f = std::max(f, a.value);
          break;
        }
        default:
          break;
      }
    }
    for (const auto& pair : touched_loss) {
      LinkParams params = net.link_params(pair.first, pair.second);
      auto it = loss.find(pair);
      params.loss_probability = it != loss.end() ? it->second : 0.0;
      net.set_link_params(pair.first, pair.second, params);
    }
    for (NodeId node : touched_slow) {
      auto it = slow.find(node);
      net.cpu(node).set_slowdown(it != slow.end() ? it->second : 1.0);
    }
  }
};

void apply_point(const FaultAction& action, Network& net,
                 const std::vector<sim::Process*>& procs) {
  switch (action.kind) {
    case FaultAction::Kind::kCrashProcess:
      if (auto* p = find_process(procs, action.pid)) p->crash();
      break;
    case FaultAction::Kind::kRestartProcess:
      // Restarting a never-crashed (still alive) process is a no-op by
      // Process::restart's idempotence; schedules stay valid after shrinking
      // drops the matching crash.
      if (auto* p = find_process(procs, action.pid)) p->restart();
      break;
    case FaultAction::Kind::kCrashNode:
      net.set_host_up(action.node, false);
      for (auto* p : procs) {
        if (p->host() == action.node) p->crash();
      }
      break;
    case FaultAction::Kind::kRestoreNode:
      net.set_host_up(action.node, true);
      break;
    default:
      VDEP_ASSERT_MSG(false, "windowed action in apply_point");
  }
}

}  // namespace

std::string FaultAction::to_string() const {
  switch (kind) {
    case Kind::kCrashProcess:
      return "crash_process at=" + time_str(at) + " pid=" + pid.str();
    case Kind::kRestartProcess:
      return "restart_process at=" + time_str(at) + " pid=" + pid.str();
    case Kind::kCrashNode:
      return "crash_node at=" + time_str(at) + " node=" + node.str();
    case Kind::kRestoreNode:
      return "restore_node at=" + time_str(at) + " node=" + node.str();
    case Kind::kLossBurst:
      return "loss_burst [" + time_str(at) + "," + time_str(until) + ") hosts=(" +
             node.str() + "," + peer.str() + ") p=" + std::to_string(value);
    case Kind::kPartition:
      return "partition [" + time_str(at) + "," + time_str(until) + ") " +
             set_str(side_a) + " | " + set_str(side_b);
    case Kind::kSlowHost:
      return "slow_host [" + time_str(at) + "," + time_str(until) + ") node=" +
             node.str() + " factor=" + std::to_string(value);
  }
  return "<invalid>";
}

void FaultPlan::crash_process(SimTime at, ProcessId pid) {
  FaultAction a;
  a.kind = FaultAction::Kind::kCrashProcess;
  a.at = at;
  a.pid = pid;
  actions_.push_back(std::move(a));
}

void FaultPlan::restart_process(SimTime at, ProcessId pid) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRestartProcess;
  a.at = at;
  a.pid = pid;
  actions_.push_back(std::move(a));
}

void FaultPlan::crash_node(SimTime at, NodeId node) {
  FaultAction a;
  a.kind = FaultAction::Kind::kCrashNode;
  a.at = at;
  a.node = node;
  actions_.push_back(std::move(a));
}

void FaultPlan::restore_node(SimTime at, NodeId node) {
  FaultAction a;
  a.kind = FaultAction::Kind::kRestoreNode;
  a.at = at;
  a.node = node;
  actions_.push_back(std::move(a));
}

void FaultPlan::loss_burst(SimTime from, SimTime to, NodeId a, NodeId b,
                           double probability) {
  VDEP_ASSERT(from <= to);
  FaultAction act;
  act.kind = FaultAction::Kind::kLossBurst;
  act.at = from;
  act.until = to;
  act.node = a;
  act.peer = b;
  act.value = std::clamp(probability, 0.0, 1.0);
  actions_.push_back(std::move(act));
}

void FaultPlan::partition_window(SimTime from, SimTime to, std::set<NodeId> side_a,
                                 std::set<NodeId> side_b) {
  VDEP_ASSERT(from <= to);
  FaultAction a;
  a.kind = FaultAction::Kind::kPartition;
  a.at = from;
  a.until = to;
  a.side_a = std::move(side_a);
  a.side_b = std::move(side_b);
  actions_.push_back(std::move(a));
}

void FaultPlan::slow_host(SimTime from, SimTime to, NodeId node, double factor) {
  VDEP_ASSERT(from <= to && factor > 0.0);
  FaultAction a;
  a.kind = FaultAction::Kind::kSlowHost;
  a.at = from;
  a.until = to;
  a.node = node;
  a.value = factor;
  actions_.push_back(std::move(a));
}

SimTime FaultPlan::last_effect_end() const {
  SimTime end = kTimeZero;
  for (const auto& a : actions_) end = std::max(end, a.effect_end());
  return end;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& a : actions_) {
    out += a.to_string();
    out += '\n';
  }
  return out;
}

Bytes FaultPlan::encode() const { return wire::encode<Bytes>(*this); }

FaultPlan FaultPlan::decode(std::span<const std::uint8_t> raw) {
  return wire::decode<FaultPlan>(raw);
}

void FaultPlan::arm(sim::Kernel& kernel, Network& network,
                    std::vector<sim::Process*> processes) const {
  auto runtime = std::make_shared<ArmRuntime>();
  for (const auto& action : actions_) {
    if (action.kind == FaultAction::Kind::kLossBurst) {
      runtime->touched_loss.insert({action.node, action.peer});
      runtime->touched_loss.insert({action.peer, action.node});
    }
    if (action.kind == FaultAction::Kind::kSlowHost) {
      runtime->touched_slow.insert(action.node);
    }
    if (action.windowed()) {
      kernel.post_at(action.at, [runtime, &network, action] {
        runtime->active.push_back(action);
        runtime->apply(network);
      });
      kernel.post_at(action.until, [runtime, &network, action] {
        auto& act = runtime->active;
        auto it = std::find(act.begin(), act.end(), action);
        if (it != act.end()) act.erase(it);
        runtime->apply(network);
      });
    } else {
      kernel.post_at(action.at, [&network, processes, action] {
        apply_point(action, network, processes);
      });
    }
  }
}

}  // namespace vdep::net
