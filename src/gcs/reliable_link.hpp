// Reliable FIFO point-to-point links between group-communication daemons.
//
// The simulated network can drop packets (transient communication faults in
// the paper's fault model); this layer adds per-peer sequencing, cumulative
// acks and timer-driven retransmission so every daemon-to-daemon message is
// delivered exactly once and in order — the substrate the sequencer protocol
// is built on. Link acks are control traffic (uncounted, cheap), standing in
// for the acknowledgement piggybacking on Spread's token. Heartbeats do not
// travel here: they are payload-free net::Network beacons, which the failure
// detector sends and reads itself (gcs/failure_detector.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "net/network.hpp"
#include "sim/actor.hpp"
#include "util/payload.hpp"

namespace vdep::gcs {

// One link frame: a data frame carries an inner message under its per-peer
// sequence number; an ack carries the cumulative sequence number received
// and no inner.
struct LinkFrame {
  enum class Type : std::uint8_t { kData = 1, kAck = 2 };
  Type type = Type::kData;
  std::uint64_t seq = 0;
  Payload inner;

  template <typename IO>
  friend void wire_fields(IO& io, LinkFrame& f) {
    io.enum_in(f.type, Type::kData, Type::kAck, "bad link frame type");
    io(f.seq, f.inner);
  }
};

class ReliableLink {
 public:
  // `deliver` receives in-order inner message frames from a peer daemon; the
  // Payload aliases the received packet's buffer (no copy).
  using DeliverFn = std::function<void(NodeId from, Payload&& inner)>;

  ReliableLink(sim::Process& owner, net::Network& network, DeliverFn deliver);

  // Reliable FIFO send. `payload_bytes` is the application-payload portion
  // used for fragmentation-aware wire accounting. `inner` may be a frame
  // shared with other peers (encode-once fan-out); the per-peer link header
  // is spliced on here, and that framed buffer is then shared between the
  // retransmit queue and the in-flight packet.
  void send(NodeId to, Payload inner, std::size_t payload_bytes);

  // Entry point for packets arriving on Port::kGcsDaemon.
  void handle_packet(net::Packet&& packet);

  // Peer declared dead: drop outstanding retransmission state. Receive state
  // is kept so late duplicates from a wrongly-suspected peer stay deduped.
  void forget_peer(NodeId peer);

  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Unacked {
    std::uint64_t seq;
    Payload frame;  // shares the buffer with the original transmission
    std::size_t wire_bytes;
  };

  struct PeerTx {
    std::uint64_t next_seq = 1;
    std::deque<Unacked> unacked;  // in sequence order
    sim::EventHandle retransmit_timer;
  };

  struct PeerRx {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Payload> reorder;  // out-of-order frames, aliased
  };

  void transmit(NodeId to, Payload frame, std::size_t wire, bool counted);
  void arm_retransmit(NodeId to);
  void send_ack(NodeId to, std::uint64_t cumulative);

  sim::Process& owner_;
  net::Network& network_;
  DeliverFn deliver_;
  std::map<NodeId, PeerTx> tx_;
  std::map<NodeId, PeerRx> rx_;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace vdep::gcs
