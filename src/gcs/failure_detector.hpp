// Heartbeat-based failure detection between daemons.
//
// The FT-CORBA "fault monitoring interval": every daemon sends heartbeats
// each calib::kDefaultHeartbeatInterval and suspects a peer after
// calib::kDefaultHeartbeatMisses silent intervals. Detection latency trades
// fast-but-jumpy against slow-but-safe — one of the trade-offs versatile
// dependability exposes.
//
// A heartbeat is a net::Network beacon: it runs the link model (loss,
// partitions, serialization, jitter) but carries no payload and schedules no
// event. The detector reads its peers' arrival times off the incoming links
// when it ticks (or when its owner polls it), so only the heartbeats that
// landed before the reading instant refresh a peer. The heartbeats it reads
// are also handed to an arrival callback, the daemon's health-plane tap.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/actor.hpp"
#include "util/ids.hpp"

namespace vdep::gcs {

class FailureDetector {
 public:
  using SuspectFn = std::function<void(NodeId peer)>;
  // Receives every heartbeat the detector reads: its sender and the instant
  // it arrived (not the instant it was read).
  using ArrivalFn = std::function<void(NodeId from, SimTime arrival)>;

  FailureDetector(sim::Process& owner, net::Network& network, std::vector<NodeId> peers,
                  SuspectFn on_suspect, ArrivalFn on_arrival);

  // Begins the heartbeat/check timer loop.
  void start();

  // Reads the heartbeats that arrived from every peer before now, in arrival
  // order per peer: each refreshes its peer's last-heard time (unless the
  // peer is already suspected) and goes to the arrival callback.
  void poll();

  // Drops the heartbeats that arrived before now unread (they landed on a
  // dead owner).
  void discard();

  // External knowledge that a peer is down (e.g. a takeover announcement
  // naming dead daemons); marks it suspected without waiting for timeouts.
  void mark_dead(NodeId peer);

  [[nodiscard]] bool alive(NodeId peer) const;
  [[nodiscard]] std::vector<NodeId> live_peers() const;

 private:
  struct PeerState {
    SimTime last_heard = kTimeZero;
    bool suspected = false;
  };
  // Peers sorted by id: the order heartbeats are sent in.
  using Peers = std::vector<std::pair<NodeId, PeerState>>;

  void tick();
  // The entry of `peer` in `peers` (a Peers, const or not), or its end().
  template <typename PeersT>
  [[nodiscard]] static auto find(PeersT& peers, NodeId peer);

  sim::Process& owner_;
  net::Network& network_;
  SuspectFn on_suspect_;
  ArrivalFn on_arrival_;
  Peers peers_;
};

}  // namespace vdep::gcs
