// Fabric: the simulated deployment every harness stands on, after the
// paper's testbed — a group-communication daemon on every host, clients on
// their own machines. It builds the kernel (tracer on when asked), the
// network, client hosts cli<i> then server hosts srv<i>, and one booted
// gcs::Daemon per host (PIDs from 100; the lowest host, the first client
// machine, is the GCS leader). With health on, a HealthMonitor is attached to
// every daemon and started right after boot; owners add SLOs and probes.
//
// It also owns what harness::Scenario, shard::ShardedCluster and
// harness::ReplicaGroup would otherwise have to agree on: replica PIDs (one
// counter from 1000), client endpoints (PID 5000+i, client<i>@<host>), and
// the fault plan, armed over the daemons plus every tracked process in
// creation order.
#pragma once

#include <memory>
#include <vector>

#include "gcs/daemon.hpp"
#include "monitor/health/health_monitor.hpp"
#include "net/fault_plan.hpp"
#include "orb/orb_core.hpp"

namespace vdep::harness {

struct FabricConfig {
  std::uint64_t seed = 1;
  int client_hosts = 0;
  int server_hosts = 0;
  bool tracing = false;
  bool health = false;
};

class Fabric final {
 public:
  // A client process and its ORB; the owner picks the transport.
  struct Client {
    Client(Fabric& fabric, int index, NodeId host);

    int index;
    sim::Process process;
    orb::ClientOrb orb;
  };

  explicit Fabric(const FabricConfig& config);
  ~Fabric();
  // Daemons, clients and armed faults hold the fabric's address.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] monitor::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] NodeId client_host(int i) const {
    return client_hosts_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] NodeId server_host(int i) const {
    return server_hosts_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const std::vector<NodeId>& server_hosts() const { return server_hosts_; }
  [[nodiscard]] gcs::Daemon& daemon_on(NodeId host);
  [[nodiscard]] bool health_enabled() const { return health_ != nullptr; }
  [[nodiscard]] monitor::health::HealthMonitor& health();  // asserts health is on

  [[nodiscard]] ProcessId next_replica_pid() { return ProcessId{next_replica_pid_++}; }
  // Lets the fault plan strike `process` (crash_process by PID, crash_node
  // by host).
  void track(sim::Process& process) { processes_.push_back(&process); }
  // Adds and tracks the next client endpoint.
  Client& add_client(NodeId host);
  [[nodiscard]] Client& client(int i) { return *clients_.at(static_cast<std::size_t>(i)); }

  // Arming twice, or an empty plan, is a no-op.
  [[nodiscard]] net::FaultPlan& fault_plan() { return fault_plan_; }
  void arm_faults();

  void drain(SimTime extra = msec(200)) { kernel_.run_until(kernel_.now() + extra); }

 private:
  sim::Kernel kernel_;
  net::Network network_;
  std::vector<NodeId> client_hosts_;
  std::vector<NodeId> server_hosts_;
  std::vector<std::unique_ptr<gcs::Daemon>> daemons_;
  monitor::MetricsRegistry metrics_;
  std::unique_ptr<monitor::health::HealthMonitor> health_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<sim::Process*> processes_;  // tracked, in creation order
  net::FaultPlan fault_plan_;
  bool faults_armed_ = false;
  std::uint64_t next_replica_pid_ = 1000;
};

}  // namespace vdep::harness
