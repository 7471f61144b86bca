// ShardedCluster — a complete multi-group testbed: one GCS daemon per host,
// a replicated shard directory, one replica group per shard (each with its
// own style / replica count / checkpoint profile from the shard policy),
// routed clients, and a migration controller. The multi-shard analogue of
// harness::Scenario, built for the scale-out experiments: replica groups are
// co-located round-robin on a bounded set of server hosts, so 32 shards do
// not need 64 machines (the daemon mesh cost grows with hosts, not groups).
//
// Every group — the directory and each shard — is one harness::ReplicaGroup,
// the same building block Scenario uses. controller(group) returns it as the
// group's knobs::ReplicaGroupController and vd(group) wraps it in a
// VersatileDependability facade, so availability/scalability synthesis runs
// independently per shard.
#pragma once

#include <map>
#include <memory>

#include "gcs/daemon.hpp"
#include "harness/replica_group.hpp"
#include "knobs/versatile.hpp"
#include "monitor/health/health_monitor.hpp"
#include "net/fault_plan.hpp"
#include "shard/migration.hpp"
#include "shard/router.hpp"
#include "util/stats.hpp"

namespace vdep::shard {

struct ShardedClusterConfig {
  std::uint64_t seed = 1;
  int shards = 4;
  ShardPolicy default_policy{};  // style/replicas/checkpointing per shard
  int directory_replicas = 2;
  replication::ReplicationStyle directory_style =
      replication::ReplicationStyle::kActive;
  int server_hosts = 8;
  int clients = 2;
  int client_hosts = 2;
  SimTime checkpoint_interval = calib::kDefaultCheckpointInterval;
  gcs::DaemonParams daemon;
  replication::ClientCoordinatorParams coordinator;
  ShardRouter::Params router;  // directory_group/object_key filled in build
  bool tracing = false;
  bool auto_recover = true;

  // Live health plane: a HealthMonitor attached to every daemon plus one SLO
  // tracker per shard ("shard.<id>" over the per-shard latency/ops/failed
  // metrics that run_workload records when health is on).
  bool health = false;
  monitor::health::HealthParams health_params;
  double shard_slo_p99_target_us = 50'000.0;
  double shard_slo_availability_target = 0.99;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterConfig config);
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  // --- fabric ---------------------------------------------------------------
  [[nodiscard]] sim::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] monitor::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const ShardedClusterConfig& config() const { return config_; }
  // Health plane (health() asserts config.health).
  [[nodiscard]] bool health_enabled() const { return health_ != nullptr; }
  [[nodiscard]] monitor::health::HealthMonitor& health();

  // --- directory ------------------------------------------------------------
  [[nodiscard]] const ShardMap& initial_map() const { return initial_map_; }
  // The map currently in force, read off a live directory replica.
  [[nodiscard]] const ShardMap& directory_map() const;
  [[nodiscard]] GroupId directory_group() const;

  // --- groups ---------------------------------------------------------------
  [[nodiscard]] std::vector<GroupId> data_groups() const;
  [[nodiscard]] int replicas_in(GroupId group) const;
  [[nodiscard]] replication::Replicator& replicator(GroupId group, int node);
  [[nodiscard]] ShardServant& shard_servant(GroupId group, int node);
  [[nodiscard]] sim::Process& replica_process(GroupId group, int node);
  [[nodiscard]] ProcessId replica_pid(GroupId group, int node) const;
  [[nodiscard]] bool replica_live(GroupId group, int node) const;
  void recover_replica(GroupId group, int node);

  // --- per-shard knobs ------------------------------------------------------
  [[nodiscard]] knobs::ReplicaGroupController& controller(GroupId group);
  [[nodiscard]] knobs::VersatileDependability& vd(GroupId group);

  // --- clients --------------------------------------------------------------
  [[nodiscard]] ShardRouter& router(int client);
  [[nodiscard]] orb::ClientOrb& client_orb(int client);

  // --- migration ------------------------------------------------------------
  [[nodiscard]] MigrationController& migration() { return *migration_; }
  // Starts a fresh (empty) replica group for `policy` and returns its id.
  GroupId provision_group(const ShardPolicy& policy);
  // Provision a target group and split `shard_id` at `split_point` onto it.
  void split_shard(std::uint32_t shard_id, std::uint32_t split_point,
                   const ShardPolicy& policy, MigrationController::Done done = {});

  // --- faults ---------------------------------------------------------------
  [[nodiscard]] net::FaultPlan& fault_plan() { return fault_plan_; }
  void arm_faults();

  void drain(SimTime extra = msec(200));

  // --- built-in workload ----------------------------------------------------
  struct WorkloadConfig {
    int ops_per_client = 50;
    SimTime gap = msec(10);  // think time between completions
    double put_ratio = 0.5;
    double append_ratio = 0.2;  // rest are gets
    int key_space = 512;
    SimTime start_at = msec(300);
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
  struct ClientBundle;

  void build();
  harness::ReplicaGroup& add_group(GroupId id, const ShardPolicy& policy);
  [[nodiscard]] NodeId pick_server_host() const;
  [[nodiscard]] harness::ReplicaGroup& group(GroupId id);
  [[nodiscard]] const harness::ReplicaGroup& group(GroupId id) const;
  [[nodiscard]] gcs::Daemon& daemon_on(NodeId host);

  ShardedClusterConfig config_;
  std::unique_ptr<sim::Kernel> kernel_;
  std::unique_ptr<net::Network> network_;
  std::vector<NodeId> hosts_;  // clients first, then servers
  std::vector<NodeId> server_hosts_;
  std::vector<std::unique_ptr<gcs::Daemon>> daemons_;
  ShardMap initial_map_;
  std::vector<std::unique_ptr<harness::ReplicaGroup>> groups_;  // [0] is the directory
  std::vector<std::unique_ptr<ClientBundle>> clients_;
  std::unique_ptr<MigrationController> migration_;
  std::map<std::uint64_t, std::unique_ptr<knobs::VersatileDependability>> vds_;
  monitor::MetricsRegistry metrics_;
  std::unique_ptr<monitor::health::HealthMonitor> health_;
  net::FaultPlan fault_plan_;
  bool faults_armed_ = false;
  std::uint64_t next_group_value_ = 0;
  std::uint64_t next_replica_pid_ = 1000;
};

}  // namespace vdep::shard
