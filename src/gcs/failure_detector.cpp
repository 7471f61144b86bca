#include "gcs/failure_detector.hpp"

#include "util/calibration.hpp"
#include "util/logging.hpp"

namespace vdep::gcs {

FailureDetector::FailureDetector(sim::Process& owner, std::vector<NodeId> peers,
                                 SendHeartbeatFn send_heartbeat, SuspectFn on_suspect)
    : owner_(owner),
      send_heartbeat_(std::move(send_heartbeat)),
      on_suspect_(std::move(on_suspect)) {
  for (NodeId p : peers) peers_[p] = PeerState{};
}

void FailureDetector::start() {
  // Treat start time as a fresh heartbeat from everyone so nobody is
  // suspected before a full timeout elapses.
  for (auto& [peer, st] : peers_) st.last_heard = owner_.now();
  tick();
}

void FailureDetector::tick() {
  for (auto& [peer, st] : peers_) {
    if (st.suspected) continue;
    send_heartbeat_(peer);
    const SimTime deadline =
        st.last_heard + calib::kDefaultHeartbeatInterval * calib::kDefaultHeartbeatMisses;
    if (owner_.now() > deadline) {
      st.suspected = true;
      log_info(owner_.now(), "fd",
               owner_.name() + " suspects daemon@" + peer.str());
      on_suspect_(peer);
    }
  }
  owner_.post(calib::kDefaultHeartbeatInterval, [this] { tick(); });
}

void FailureDetector::heartbeat_received(NodeId from) {
  auto it = peers_.find(from);
  if (it == peers_.end()) return;
  // Suspicion is sticky: a suspected daemon stays out (crash-stop model).
  if (!it->second.suspected) it->second.last_heard = owner_.now();
}

void FailureDetector::mark_dead(NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.suspected) return;
  it->second.suspected = true;
  on_suspect_(peer);
}

bool FailureDetector::alive(NodeId peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  return !it->second.suspected;
}

std::vector<NodeId> FailureDetector::live_peers() const {
  std::vector<NodeId> out;
  for (const auto& [peer, st] : peers_) {
    if (!st.suspected) out.push_back(peer);
  }
  return out;
}

}  // namespace vdep::gcs
