// Declarative fault schedules for experiments, tests and the chaos engine.
//
// The paper's fault model (Sec. 3.1): hardware and software crash faults,
// transient communication faults, performance and timing faults. A FaultPlan
// scripts those against a scenario: crash/restart a process, crash a node
// (host down + all its processes), message-loss bursts, partition windows,
// and performance faults (a host's CPU suddenly slowed by inflating work).
//
// Actions are plain data (not closures) so that schedules can be generated
// from a seed, printed, serialized, compared and shrunk — the chaos engine
// (src/chaos) depends on exactly this. arm() interprets the actions against
// a live kernel/network.
#pragma once

#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/actor.hpp"

namespace vdep::net {

// One scheduled fault. Windowed kinds (loss burst, partition, slow host)
// strike at `at` and lift at `until`; point kinds ignore `until`.
struct FaultAction {
  enum class Kind : std::uint8_t {
    kCrashProcess = 1,
    kRestartProcess = 2,
    kCrashNode = 3,
    kRestoreNode = 4,
    kLossBurst = 5,
    kPartition = 6,
    kSlowHost = 7,
  };

  Kind kind = Kind::kCrashProcess;
  SimTime at = kTimeZero;
  SimTime until = kTimeZero;
  ProcessId pid;                    // process kinds
  NodeId node;                      // node kinds, loss endpoint a, slow host
  NodeId peer;                      // loss endpoint b
  std::set<NodeId> side_a, side_b;  // partition sides
  double value = 0.0;               // loss probability / slowdown factor

  [[nodiscard]] bool windowed() const {
    return kind == Kind::kLossBurst || kind == Kind::kPartition ||
           kind == Kind::kSlowHost;
  }
  // The instant the fault's direct effect is over (lift time for windowed
  // kinds, strike time otherwise).
  [[nodiscard]] SimTime effect_end() const { return windowed() ? until : at; }

  [[nodiscard]] std::string to_string() const;

  // Decoding enforces what the FaultPlan builders guarantee: a window never
  // lifts before it strikes, a loss probability lies in [0, 1] and a
  // slowdown factor is positive.
  template <typename IO>
  friend void wire_fields(IO& io, FaultAction& m) {
    io.enum_in(m.kind, Kind::kCrashProcess, Kind::kSlowHost, "fault action kind out of range");
    io(m.at, m.until, m.pid, m.node, m.peer);
    io.seq(m.side_a, 8);
    io.seq(m.side_b, 8);
    io(m.value);
    io.check(!m.windowed() || m.at <= m.until, "fault window lifts before it strikes");
    io.check(m.kind != Kind::kLossBurst || (m.value >= 0.0 && m.value <= 1.0),
             "loss probability outside [0, 1]");
    io.check(m.kind != Kind::kSlowHost || m.value > 0.0, "slowdown factor not positive");
  }

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

class FaultPlan {
 public:
  void crash_process(SimTime at, ProcessId pid);
  void restart_process(SimTime at, ProcessId pid);
  void crash_node(SimTime at, NodeId node);
  void restore_node(SimTime at, NodeId node);
  // Transient communication fault: both directions of (a, b) drop packets
  // with `probability` (clamped to [0, 1]) during [from, to).
  void loss_burst(SimTime from, SimTime to, NodeId a, NodeId b, double probability);
  // Network partition separating the two sides during [from, to). Windows
  // may overlap: a partition stays cut until the last window covering it
  // lifts.
  void partition_window(SimTime from, SimTime to, std::set<NodeId> side_a,
                        std::set<NodeId> side_b);
  // Performance/timing fault: the host's CPU runs `factor`x slower during
  // [from, to). Overlapping windows compound to the largest active factor.
  void slow_host(SimTime from, SimTime to, NodeId node, double factor);

  void add(FaultAction action) { actions_.push_back(std::move(action)); }

  // Installs all scheduled faults on the kernel. `processes` is the registry
  // of every crashable process in the scenario (used to resolve pids and to
  // find a node's resident processes).
  void arm(sim::Kernel& kernel, Network& network,
           std::vector<sim::Process*> processes) const;

  [[nodiscard]] const std::vector<FaultAction>& actions() const { return actions_; }
  [[nodiscard]] bool empty() const { return actions_.empty(); }
  [[nodiscard]] std::size_t size() const { return actions_.size(); }
  void clear() { actions_.clear(); }

  // The instant the last scheduled fault effect ends (kTimeZero when empty).
  [[nodiscard]] SimTime last_effect_end() const;

  // One action per line, deterministic — the chaos engine prints minimal
  // reproducers with this.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] Bytes encode() const;
  static FaultPlan decode(std::span<const std::uint8_t> raw);
  template <typename IO>
  friend void wire_fields(IO& io, FaultPlan& m) {
    io.seq(m.actions_, 57);  // one action with empty partition sides
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultAction> actions_;
};

}  // namespace vdep::net
