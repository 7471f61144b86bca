// The group-communication daemon: one per host, Spread-style.
//
// Responsibilities:
//  - serve local application processes (Endpoints): join/leave/multicast,
//    ordered delivery, membership views, point-to-point datagrams;
//  - run the reliable link layer and heartbeat failure detection among
//    daemons;
//  - route order requests to the current leader daemon (the lowest-id live
//    daemon), which runs LeaderState to sequence messages and membership
//    changes;
//  - take over leadership when the leader dies: broadcast Takeover, collect
//    SyncStates from all live daemons, bootstrap a new LeaderState from the
//    union of their buffers, replay unstable history and pending forwards.
//
// Costs: every data packet charges the host CPU the calibrated per-packet
// daemon cost (times its MTU fragment count); the leader charges an extra
// sequencing cost per ordered message. This is what makes large warm-passive
// checkpoints expensive, as on the paper's testbed.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "gcs/failure_detector.hpp"
#include "gcs/health_observer.hpp"
#include "gcs/membership.hpp"
#include "gcs/ordering.hpp"
#include "gcs/reliable_link.hpp"
#include "net/network.hpp"
#include "sim/actor.hpp"

namespace vdep::gcs {

class Endpoint;

class Daemon : public sim::Process {
 public:
  Daemon(sim::Kernel& kernel, net::Network& network, ProcessId pid, NodeId host,
         std::vector<NodeId> all_daemon_hosts);
  ~Daemon() override;

  // Binds the network port and starts heartbeats. Call once, after every
  // daemon in the scenario is constructed.
  void boot();

  // --- Endpoint interface (used by gcs::Endpoint) -----------------------------
  // A process may hold several endpoints (e.g. its replicator and its
  // replicated-state object), each joined to different groups.
  void register_endpoint(Endpoint& ep);
  void unregister_endpoint(Endpoint& ep);

  void submit_join(ProcessId pid, GroupId group, std::uint64_t origin_seq);
  void submit_leave(ProcessId pid, GroupId group, std::uint64_t origin_seq);
  void submit_multicast(ProcessId pid, GroupId group, ServiceType svc, Payload payload,
                        std::uint64_t origin_seq);
  void submit_unicast(ProcessId pid, ProcessId dst, NodeId dst_daemon, Payload payload);

  // --- introspection ------------------------------------------------------------
  [[nodiscard]] bool is_leader() const { return leader_ == host() && !awaiting_sync_; }
  [[nodiscard]] std::uint64_t term() const { return term_; }

  // Health-plane tap (see gcs/health_observer.hpp). The observer must
  // outlive the daemon; nullptr detaches.
  void set_health_observer(HealthObserver* observer) { health_ = observer; }

  // Reads the heartbeats that arrived before now: the failure detector takes
  // them, and each goes to the health observer with its arrival time. The
  // detector polls on its own ticks; an observer that evaluates between them
  // polls first. Once this daemon has crashed, arrivals are dropped unread.
  void poll_heartbeats();

 private:
  friend class Endpoint;

  // Packet pipeline.
  void on_packet(net::Packet&& packet);
  void on_link_deliver(NodeId from, Payload&& inner);
  void handle_inner(NodeId from, InnerMsg&& msg);

  void handle_forward(NodeId from, Forward&& fwd);
  void handle_ordered(Ordered&& msg);
  void handle_ord_ack(const OrdAck& ack);
  void handle_stable(const StableMsg& stable);
  void handle_fwd_ack(const FwdAck& ack);
  void handle_takeover(NodeId from, const Takeover& t);
  void handle_sync_state(SyncState&& st);
  void handle_private(PrivateMsg&& msg);

  // Sending.
  void send_inner(NodeId to, const InnerMsg& msg);
  void emit(const LeaderState::Emissions& emissions);
  void send_forward_to_leader(const Forward& fwd);
  void order_forward(const Forward& fwd);  // leader-side sequencing (+span)

  // Delivery to local endpoints. An ordered message ready for delivery
  // becomes one LocalDelivery per local member; the whole batch popped by a
  // single take_deliverable() call rides one kernel event (the items fire
  // back-to-back at the same instant a per-item post would have run them,
  // so a multicast round costs one dispatch instead of N).
  struct LocalDelivery {
    ProcessId pid;
    std::optional<View> view;  // set for view notifications
    GroupMessage gm;           // payload delivery otherwise
  };
  void deliver_from_buffer(GroupId group);
  void deliver_one(const Ordered& msg, std::vector<LocalDelivery>& batch);
  void fire_local_delivery(const LocalDelivery& d);

  // Leadership.
  void stability_token_tick();
  void on_suspect(NodeId daemon);
  void start_takeover();
  void maybe_finish_takeover();
  [[nodiscard]] SyncState local_sync_state(std::uint64_t term) const;
  [[nodiscard]] NodeId lowest_live_daemon() const;

  // Pending forwards (sent but not yet acknowledged as ordered).
  struct PendingKey {
    GroupId group;
    OriginId origin;
    auto operator<=>(const PendingKey&) const = default;
  };

  net::Network& network_;
  std::vector<NodeId> all_daemons_;
  HealthObserver* health_ = nullptr;
  std::unique_ptr<ReliableLink> link_;
  std::unique_ptr<FailureDetector> fd_;

  NodeId leader_;
  std::uint64_t term_ = 0;

  // Leader role.
  std::unique_ptr<LeaderState> leader_state_;

  // Takeover-in-progress state.
  bool awaiting_sync_ = false;
  std::uint64_t sync_term_ = 0;
  std::map<NodeId, SyncState> sync_collected_;
  std::vector<std::pair<NodeId, InnerMsg>> queued_during_sync_;

  // Member-daemon role.
  std::map<GroupId, GroupReceiveBuffer> buffers_;
  // Last view delivered to local endpoints, per group (governs which local
  // processes receive data messages).
  std::map<GroupId, View> delivery_views_;

  std::map<PendingKey, Forward> pending_;
  std::map<ProcessId, std::vector<Endpoint*>> endpoints_;
  std::set<ProcessId> crash_subscribed_;
};

}  // namespace vdep::gcs
