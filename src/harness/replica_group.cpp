#include "harness/replica_group.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace vdep::harness {

ReplicaGroup::Node::Node(Fabric& fabric, NodeId host, std::string name,
                         std::unique_ptr<replication::Checkpointable> app)
    : process(fabric.kernel(), fabric.next_replica_pid(), host, std::move(name)),
      servant(std::move(app)),
      orb(fabric.network(), process, poa) {
  poa.activate(kObjectKey, *servant);
}

ReplicaGroup::ReplicaGroup(Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {}

int ReplicaGroup::add_node(NodeId host) {
  const int index = size();
  // Nodes created at t=0 start from the deployment's seed state; anything
  // added later fills in by state transfer.
  const bool blank = fabric_.kernel().now() != kTimeZero;
  nodes_.push_back(std::make_unique<Node>(
      fabric_, host,
      config_.name_prefix + std::to_string(index) + "@" + fabric_.network().host_name(host),
      config_.make_servant(index, blank)));
  fabric_.track(nodes_.back()->process);
  return index;
}

void ReplicaGroup::start(int index, bool join_existing) {
  auto& n = node(index);
  VDEP_ASSERT(!n.started);
  // Read before this node counts as live: a joiner takes the style of the
  // group it joins (the configured one only while no node is live).
  const replication::ReplicationStyle current = style();
  n.started = true;

  n.replicator = std::make_unique<replication::Replicator>(
      fabric_.network(), fabric_.daemon_on(n.process.host()), n.process, n.orb, *n.servant,
      config_.id, config_.params);
  if (config_.on_replicator_created) config_.on_replicator_created(index, *n.replicator);
  if (config_.auto_recover && !n.recovery_hooked) {
    n.recovery_hooked = true;
    n.process.subscribe_restart([this, index](ProcessId) {
      // The restart fires from inside a fault-plan event; rebuild the stack
      // on a fresh event, and only if the process is still up and nothing
      // else (a manual recover) already rebuilt it by then.
      fabric_.kernel().post(kTimeZero, [this, index] {
        auto& b = node(index);
        if (b.process.alive() && b.replicator_incarnation != b.process.incarnation()) {
          recover(index);
        }
      });
    });
  }
  n.replicator_incarnation = n.process.incarnation();
  n.replicator->start(current, join_existing);
  if (config_.attach) n.attachment = config_.attach(n);
}

void ReplicaGroup::recover(int index) {
  auto& n = node(index);
  if (!n.process.alive()) n.process.restart();
  // The new incarnation lost all volatile state: whatever the owner attached,
  // the replicator and the servant are rebuilt from scratch.
  n.attachment.reset();
  n.replicator.reset();
  n.poa.deactivate(kObjectKey);
  n.servant = config_.make_servant(index, /*blank=*/true);
  n.poa.activate(kObjectKey, *n.servant);
  n.started = false;
  start(index, /*join_existing=*/true);
}

int ReplicaGroup::live_count() const {
  int live = 0;
  for (const auto& n : nodes_) {
    if (n->live()) ++live;
  }
  return live;
}

const ReplicaGroup::Node& ReplicaGroup::first_live() const {
  for (const auto& n : nodes_) {
    if (n->live()) return *n;
  }
  throw std::runtime_error("group " + std::to_string(config_.id.value()) +
                           ": no live replica");
}

std::vector<std::uint64_t> ReplicaGroup::live_state_digests() const {
  std::vector<std::uint64_t> out;
  for (const auto& n : nodes_) {
    if (n->live()) out.push_back(n->servant->state_digest());
  }
  return out;
}

// --- knobs::ReplicaGroupController ----------------------------------------------

void ReplicaGroup::set_style(replication::ReplicationStyle style) {
  config_.style = style;
  first_live().replicator->request_style_switch(style);
}

replication::ReplicationStyle ReplicaGroup::style() const {
  return live_count() > 0 ? first_live().replicator->style() : config_.style;
}

void ReplicaGroup::set_replica_count(int replicas) {
  VDEP_ASSERT(replicas >= 1);
  int live = live_count();
  // Shrink: retire the most junior live nodes.
  for (auto it = nodes_.rbegin(); it != nodes_.rend() && live > replicas; ++it) {
    if (!(*it)->live()) continue;
    (*it)->replicator->stop();
    --live;
  }
  // Grow: new nodes join the running group with a state transfer.
  while (live < replicas) {
    start(add_node(config_.grow_host()), /*join_existing=*/true);
    ++live;
  }
}

void ReplicaGroup::set_checkpoint_interval(SimTime interval) {
  config_.params.checkpoint_interval = interval;
  for (auto& n : nodes_) {
    if (n->live()) n->replicator->set_checkpoint_interval(interval);
  }
}

void ReplicaGroup::set_checkpoint_anchor_interval(std::uint32_t interval) {
  config_.params.checkpoint_anchor_interval = interval;
  for (auto& n : nodes_) {
    if (n->live()) n->replicator->set_checkpoint_anchor_interval(interval);
  }
}

}  // namespace vdep::harness
