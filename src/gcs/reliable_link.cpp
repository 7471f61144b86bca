#include "gcs/reliable_link.hpp"

#include "net/link.hpp"
#include "util/assert.hpp"
#include "util/calibration.hpp"
#include "util/wire.hpp"

namespace vdep::gcs {

namespace {

constexpr SimTime kRetransmitTimeout = msec(15);

}  // namespace

ReliableLink::ReliableLink(sim::Process& owner, net::Network& network, DeliverFn deliver)
    : owner_(owner), network_(network), deliver_(std::move(deliver)) {}

void ReliableLink::transmit(NodeId to, Payload frame, std::size_t wire,
                            bool counted) {
  net::Packet p;
  p.src = owner_.host();
  p.dst = to;
  p.port = net::Port::kGcsDaemon;
  p.payload = std::move(frame);
  p.wire_bytes = wire;
  p.counted = counted;
  network_.send(std::move(p));
}

void ReliableLink::send(NodeId to, Payload inner, std::size_t payload_bytes) {
  auto& peer = tx_[to];
  const std::uint64_t seq = peer.next_seq++;
  const std::size_t wire = net::wire_bytes(payload_bytes, calib::kGcsHeaderBytes) +
                           (inner.size() - payload_bytes);
  // The per-peer sequence number forces one splice here, but the resulting
  // frame is shared (not copied) between the retransmit queue and the packet.
  Payload frame = wire::encode(LinkFrame{LinkFrame::Type::kData, seq, std::move(inner)});
  peer.unacked.push_back(Unacked{seq, frame, wire});
  transmit(to, std::move(frame), wire, /*counted=*/true);
  arm_retransmit(to);
}

void ReliableLink::send_ack(NodeId to, std::uint64_t cumulative) {
  Payload frame = wire::encode(LinkFrame{LinkFrame::Type::kAck, cumulative, {}});
  const std::size_t wire = frame.size();
  transmit(to, std::move(frame), wire, /*counted=*/false);
}

void ReliableLink::arm_retransmit(NodeId to) {
  auto& peer = tx_[to];
  if (peer.retransmit_timer.active() || peer.unacked.empty()) return;
  peer.retransmit_timer = owner_.post(kRetransmitTimeout, [this, to] {
    auto it = tx_.find(to);
    if (it == tx_.end() || it->second.unacked.empty()) return;
    for (const auto& u : it->second.unacked) {
      ++retransmissions_;
      transmit(to, u.frame, u.wire_bytes, /*counted=*/true);
    }
    arm_retransmit(to);
  });
}

void ReliableLink::forget_peer(NodeId peer) {
  auto it = tx_.find(peer);
  if (it == tx_.end()) return;
  it->second.retransmit_timer.cancel();
  tx_.erase(it);
}

void ReliableLink::handle_packet(net::Packet&& packet) {
  // The inner is a zero-copy alias of the received bytes.
  LinkFrame frame = wire::decode<LinkFrame>(packet.payload);
  const std::uint64_t seq = frame.seq;
  switch (frame.type) {
    case LinkFrame::Type::kAck: {
      auto it = tx_.find(packet.src);
      if (it == tx_.end()) return;
      auto& unacked = it->second.unacked;
      while (!unacked.empty() && unacked.front().seq <= seq) unacked.pop_front();
      if (unacked.empty()) it->second.retransmit_timer.cancel();
      return;
    }

    case LinkFrame::Type::kData: {
      auto& peer = rx_[packet.src];
      if (seq == peer.next_expected) {
        ++peer.next_expected;
        deliver_(packet.src, std::move(frame.inner));
      } else if (seq > peer.next_expected) {
        peer.reorder.try_emplace(seq, std::move(frame.inner));
      }
      // Then the buffered frames that are now next in order.
      while (true) {
        auto dit = peer.reorder.find(peer.next_expected);
        if (dit == peer.reorder.end()) break;
        Payload msg = std::move(dit->second);
        peer.reorder.erase(dit);
        ++peer.next_expected;
        deliver_(packet.src, std::move(msg));
      }
      send_ack(packet.src, peer.next_expected - 1);
      return;
    }
  }
}

}  // namespace vdep::gcs
