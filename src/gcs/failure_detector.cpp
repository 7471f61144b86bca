#include "gcs/failure_detector.hpp"

#include <algorithm>

#include "util/calibration.hpp"

namespace vdep::gcs {

FailureDetector::FailureDetector(sim::Process& owner, net::Network& network,
                                 std::vector<NodeId> peers, SuspectFn on_suspect,
                                 ArrivalFn on_arrival)
    : owner_(owner),
      network_(network),
      on_suspect_(std::move(on_suspect)),
      on_arrival_(std::move(on_arrival)) {
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  for (NodeId p : peers) peers_.emplace_back(p, PeerState{});
}

template <typename PeersT>
auto FailureDetector::find(PeersT& peers, NodeId peer) {
  auto it = std::lower_bound(
      peers.begin(), peers.end(), peer,
      [](const auto& entry, NodeId id) { return entry.first < id; });
  return it != peers.end() && it->first == peer ? it : peers.end();
}

void FailureDetector::start() {
  // Treat start time as a fresh heartbeat from everyone so nobody is
  // suspected before a full timeout elapses.
  for (auto& [peer, st] : peers_) st.last_heard = owner_.now();
  tick();
}

void FailureDetector::poll() {
  const SimTime now = owner_.now();
  for (auto& [peer, st] : peers_) {
    network_.take_beacons(peer, owner_.host(), now, [&](SimTime arrival) {
      // Suspicion is sticky: a suspected daemon stays out (crash-stop model).
      if (!st.suspected) st.last_heard = arrival;
      on_arrival_(peer, arrival);
    });
  }
}

void FailureDetector::discard() {
  const SimTime now = owner_.now();
  for (auto& [peer, st] : peers_) {
    network_.take_beacons(peer, owner_.host(), now, [](SimTime) {});
  }
}

void FailureDetector::tick() {
  poll();
  for (auto& [peer, st] : peers_) {
    if (st.suspected) continue;
    network_.beacon(owner_.host(), peer);
    const SimTime deadline =
        st.last_heard + calib::kDefaultHeartbeatInterval * calib::kDefaultHeartbeatMisses;
    if (owner_.now() > deadline) {
      st.suspected = true;
      on_suspect_(peer);
    }
  }
  owner_.post(calib::kDefaultHeartbeatInterval, [this] { tick(); });
}

void FailureDetector::mark_dead(NodeId peer) {
  auto it = find(peers_, peer);
  if (it == peers_.end() || it->second.suspected) return;
  it->second.suspected = true;
  on_suspect_(peer);
}

bool FailureDetector::alive(NodeId peer) const {
  auto it = find(peers_, peer);
  return it != peers_.end() && !it->second.suspected;
}

std::vector<NodeId> FailureDetector::live_peers() const {
  std::vector<NodeId> out;
  for (const auto& [peer, st] : peers_) {
    if (!st.suspected) out.push_back(peer);
  }
  return out;
}

}  // namespace vdep::gcs
