// ShardedCluster — a complete multi-group testbed: a replicated shard
// directory, one replica group per shard (each with its own style / replica
// count / checkpoint profile from the shard policy), routed clients, and a
// migration controller. The multi-shard analogue of harness::Scenario, built
// for the scale-out experiments: replica groups are co-located round-robin
// on a bounded set of server hosts, so 32 shards do not need 64 machines
// (the daemon mesh cost grows with hosts, not groups).
//
// The cluster stands on the same harness::Fabric as Scenario (kernel,
// network, one daemon per host, client endpoints, health plane, fault plan).
// Every group — the directory and each shard — is one harness::ReplicaGroup,
// the building block Scenario uses too. controller(group) returns it as the
// group's knobs::ReplicaGroupController and vd(group) wraps it in a
// VersatileDependability facade, so availability/scalability synthesis runs
// independently per shard.
#pragma once

#include <map>
#include <memory>

#include "harness/fabric.hpp"
#include "harness/replica_group.hpp"
#include "knobs/versatile.hpp"
#include "shard/migration.hpp"
#include "shard/router.hpp"
#include "util/stats.hpp"

namespace vdep::shard {

struct ShardedClusterConfig {
  std::uint64_t seed = 1;
  int shards = 4;
  ShardPolicy default_policy{};  // style/replicas/checkpointing per shard
  int server_hosts = 8;
  int clients = 2;
  int client_hosts = 2;
  SimTime checkpoint_interval = calib::kDefaultCheckpointInterval;
  bool tracing = false;
  bool auto_recover = true;

  // Live health plane: a HealthMonitor attached to every daemon plus one SLO
  // tracker per shard ("shard.<id>" over the per-shard latency/ops/failed
  // metrics that run_workload records when health is on).
  bool health = false;
  double shard_slo_p99_target_us = 50'000.0;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterConfig config);

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  // --- fabric ---------------------------------------------------------------
  [[nodiscard]] sim::Kernel& kernel() { return fabric_.kernel(); }
  [[nodiscard]] net::Network& network() { return fabric_.network(); }
  [[nodiscard]] monitor::MetricsRegistry& metrics() { return fabric_.metrics(); }
  [[nodiscard]] const ShardedClusterConfig& config() const { return config_; }
  [[nodiscard]] gcs::Daemon& daemon_on(NodeId host) { return fabric_.daemon_on(host); }
  // Health plane (health() asserts config.health).
  [[nodiscard]] bool health_enabled() const { return fabric_.health_enabled(); }
  [[nodiscard]] monitor::health::HealthMonitor& health() { return fabric_.health(); }

  // --- directory ------------------------------------------------------------
  [[nodiscard]] const ShardMap& initial_map() const { return initial_map_; }
  // The map currently in force, read off a live directory replica.
  [[nodiscard]] const ShardMap& directory_map() const;
  [[nodiscard]] GroupId directory_group() const { return kDirectoryGroup; }

  // --- groups ---------------------------------------------------------------
  [[nodiscard]] std::vector<GroupId> data_groups() const;
  [[nodiscard]] int replicas_in(GroupId id) const { return group(id).size(); }
  [[nodiscard]] replication::Replicator& replicator(GroupId group, int node);
  [[nodiscard]] ShardServant& shard_servant(GroupId group, int node);
  [[nodiscard]] sim::Process& replica_process(GroupId id, int node) {
    return group(id).node(node).process;
  }
  [[nodiscard]] ProcessId replica_pid(GroupId id, int node) const {
    return group(id).node(node).process.id();
  }
  [[nodiscard]] bool replica_live(GroupId id, int node) const {
    return group(id).node(node).live();
  }

  // --- per-shard knobs ------------------------------------------------------
  [[nodiscard]] knobs::ReplicaGroupController& controller(GroupId id) { return group(id); }
  [[nodiscard]] knobs::VersatileDependability& vd(GroupId group);

  // --- clients --------------------------------------------------------------
  [[nodiscard]] ShardRouter& router(int client) {
    return *routers_.at(static_cast<std::size_t>(client));
  }
  [[nodiscard]] orb::ClientOrb& client_orb(int client) { return fabric_.client(client).orb; }

  // --- migration ------------------------------------------------------------
  [[nodiscard]] MigrationController& migration() { return *migration_; }
  // Starts a fresh (empty) replica group for `policy` and returns its id.
  GroupId provision_group(const ShardPolicy& policy);
  // Provision a target group and split `shard_id` at `split_point` onto it.
  void split_shard(std::uint32_t shard_id, std::uint32_t split_point,
                   const ShardPolicy& policy, MigrationController::Done done = {});

  // --- faults ---------------------------------------------------------------
  // Crashing a server host takes down its daemon and every replica on it.
  [[nodiscard]] net::FaultPlan& fault_plan() { return fabric_.fault_plan(); }
  void arm_faults() { fabric_.arm_faults(); }

  void drain(SimTime extra = msec(200)) { fabric_.drain(extra); }

  // --- built-in workload ----------------------------------------------------
  struct WorkloadConfig {
    int ops_per_client = 50;
    SimTime gap = msec(10);  // think time between completions
    double append_ratio = 0.2;  // puts are half the ops, the rest gets
    int key_space = 512;
    SimTime stagger = usec(100);  // spacing between client first ops
    SimTime deadline = sec(120);
  };
  struct WorkloadResult {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  // router gave up (exhausted route attempts)
    double throughput_rps = 0.0;
    double avg_latency_us = 0.0;
    double p99_latency_us = 0.0;
    SimTime finished_at = kTimeZero;
    bool all_done = false;
  };
  WorkloadResult run_workload(const WorkloadConfig& wc);

 private:
  harness::ReplicaGroup& add_group(GroupId id, const ShardPolicy& policy);
  [[nodiscard]] NodeId pick_server_host() const;
  [[nodiscard]] harness::ReplicaGroup& group(GroupId id);
  [[nodiscard]] const harness::ReplicaGroup& group(GroupId id) const;

  ShardedClusterConfig config_;
  harness::Fabric fabric_;
  ShardMap initial_map_;
  std::vector<std::unique_ptr<harness::ReplicaGroup>> groups_;  // [0] is the directory
  std::vector<std::unique_ptr<ShardRouter>> routers_;  // one per client
  std::unique_ptr<MigrationController> migration_;
  std::map<std::uint64_t, std::unique_ptr<knobs::VersatileDependability>> vds_;
  std::uint64_t next_group_value_ = 0;
};

}  // namespace vdep::shard
