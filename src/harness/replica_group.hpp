// ReplicaGroup: one replica group of a simulated deployment — the building
// block behind harness::Scenario (one group) and shard::ShardedCluster (a
// directory group plus one group per shard).
//
// Each node is a process with its servant, POA, server ORB and replicator.
// The group starts and joins nodes, rebuilds a restarted node as a fresh
// incarnation that catches up by state transfer, and is the group's
// knobs::ReplicaGroupController: style switches, replica growth/shrink,
// checkpoint and anchor intervals. A grown or recovered node starts in the
// group's current style (the first live node's), not the one it was built
// with. The owner keeps the fabric (kernel, network, daemons, health) and
// passes in what differs between deployments: names, PIDs, servants, params
// and where to grow.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "knobs/low_level.hpp"
#include "replication/replicator.hpp"

namespace vdep::harness {

class ReplicaGroup final : public knobs::ReplicaGroupController {
 public:
  // Every node activates its servant under this key.
  static constexpr ObjectId kObjectKey{1};

  // Per-node state an owner builds on top of a started replicator
  // (monitoring, adaptation). Dropped before that replicator on recovery.
  struct Attachment {
    Attachment() = default;
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    virtual ~Attachment() = default;
  };

  struct Node {
    Node(net::Network& network, NodeId host, ProcessId pid, std::string name,
         std::unique_ptr<replication::Checkpointable> app);

    sim::Process process;
    std::unique_ptr<replication::Checkpointable> servant;
    orb::Poa poa;
    orb::ServerOrb orb;
    std::unique_ptr<replication::Replicator> replicator;
    std::unique_ptr<Attachment> attachment;
    bool started = false;
    bool recovery_hooked = false;
    // Process incarnation the replicator was built for; a mismatch means the
    // process restarted underneath it and the node needs recovery.
    std::uint64_t replicator_incarnation = 0;

    // A started node without a replicator serves over plain TCP (the
    // Scenario's Fig. 4 baseline modes).
    [[nodiscard]] bool live() const {
      return started && process.alive() &&
             (replicator == nullptr || !replicator->stopped());
    }
  };

  struct Config {
    GroupId id;
    std::string name_prefix;  // process names are <prefix><index>@<host>
    replication::ReplicationStyle style = replication::ReplicationStyle::kActive;
    replication::ReplicatorParams params;
    // Rebuild a node the fault plan restarts (see recover).
    bool auto_recover = false;
    std::function<ProcessId()> next_pid;
    std::function<gcs::Daemon&(NodeId)> daemon_on;
    // blank: the node catches up by state transfer (recovery, or any node
    // added after t=0) instead of starting from the deployment's seed state.
    std::function<std::unique_ptr<replication::Checkpointable>(int node, bool blank)>
        make_servant;
    // Host for a node added by set_replica_count.
    std::function<NodeId()> grow_host;
    // Optional: called on every new replicator before it starts.
    std::function<void(int node, replication::Replicator&)> on_replicator_created;
    // Optional: called on every node right after its replicator starts.
    std::function<std::unique_ptr<Attachment>(Node&)> attach;
  };

  ReplicaGroup(net::Network& network, Config config);
  // Restart hooks and owner callbacks hold the group's address.
  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  // Adds a node on `host` (not started) and returns its index.
  int add_node(NodeId host);
  // Builds and starts the node's replicator: founding the group, or joining
  // a running one with a state transfer.
  void start(int node, bool join_existing);
  // Rebuilds a crashed (or just-restarted) node as a fresh incarnation:
  // blank servant, new replicator joining the running group.
  void recover(int node);

  [[nodiscard]] GroupId id() const { return config_.id; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Node& node(int index) { return *nodes_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] const Node& node(int index) const {
    return *nodes_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] int live_count() const;
  [[nodiscard]] const Node& first_live() const;
  // Digests of the live nodes' application state, in node order.
  [[nodiscard]] std::vector<std::uint64_t> live_state_digests() const;

  // --- knobs::ReplicaGroupController ----------------------------------------
  void set_style(replication::ReplicationStyle style) override;
  [[nodiscard]] replication::ReplicationStyle style() const override;
  void set_replica_count(int replicas) override;
  [[nodiscard]] int replica_count() const override { return live_count(); }
  void set_checkpoint_interval(SimTime interval) override;
  [[nodiscard]] SimTime checkpoint_interval() const override {
    return config_.params.checkpoint_interval;
  }
  void set_checkpoint_anchor_interval(std::uint32_t interval) override;
  [[nodiscard]] std::uint32_t checkpoint_anchor_interval() const override {
    return config_.params.checkpoint_anchor_interval;
  }

 private:
  net::Network& network_;
  Config config_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace vdep::harness
