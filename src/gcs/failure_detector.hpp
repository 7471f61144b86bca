// Heartbeat-based failure detection between daemons.
//
// The FT-CORBA "fault monitoring interval": every daemon sends heartbeats
// each calib::kDefaultHeartbeatInterval and suspects a peer after
// calib::kDefaultHeartbeatMisses silent intervals. Detection latency trades
// fast-but-jumpy against slow-but-safe — one of the trade-offs versatile
// dependability exposes.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "sim/actor.hpp"
#include "util/ids.hpp"

namespace vdep::gcs {

class FailureDetector {
 public:
  using SendHeartbeatFn = std::function<void(NodeId peer)>;
  using SuspectFn = std::function<void(NodeId peer)>;

  FailureDetector(sim::Process& owner, std::vector<NodeId> peers,
                  SendHeartbeatFn send_heartbeat, SuspectFn on_suspect);

  // Begins the heartbeat/check timer loop.
  void start();

  // Called by the daemon when a heartbeat arrives.
  void heartbeat_received(NodeId from);

  // External knowledge that a peer is down (e.g. a takeover announcement
  // naming dead daemons); marks it suspected without waiting for timeouts.
  void mark_dead(NodeId peer);

  [[nodiscard]] bool alive(NodeId peer) const;
  [[nodiscard]] std::vector<NodeId> live_peers() const;

 private:
  void tick();

  sim::Process& owner_;
  SendHeartbeatFn send_heartbeat_;
  SuspectFn on_suspect_;

  struct PeerState {
    SimTime last_heard = kTimeZero;
    bool suspected = false;
  };
  std::map<NodeId, PeerState> peers_;
};

}  // namespace vdep::gcs
