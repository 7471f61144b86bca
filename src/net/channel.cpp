#include "net/channel.hpp"

#include "net/link.hpp"
#include "util/assert.hpp"
#include "util/wire.hpp"

namespace vdep::net {

namespace {

enum class FrameType : std::uint8_t { kSyn = 1, kData = 2 };

struct Frame {
  FrameType type;
  std::uint64_t channel;
  std::uint16_t tcp_port = 0;  // SYN only
  std::uint64_t seq = 0;       // DATA only
  Payload message;             // DATA only

  template <typename IO>
  friend void wire_fields(IO& io, Frame& m) {
    io.enum_in(m.type, FrameType::kSyn, FrameType::kData, "bad channel frame type");
    io(m.channel, m.tcp_port, m.seq, m.message);
  }

  [[nodiscard]] Payload encode() const { return wire::encode(*this); }
};

}  // namespace

// --- Channel -----------------------------------------------------------------

Channel::Channel(ChannelManager& mgr, ChannelId id, NodeId local, NodeId remote)
    : mgr_(mgr), id_(id), local_(local), remote_(remote) {}

void Channel::set_receive_handler(ReceiveHandler handler) {
  on_receive_ = std::move(handler);
  flush_in_order();
}

void Channel::send(Payload message) {
  Frame f{FrameType::kData, id_.value(), 0, next_send_seq_++, std::move(message)};
  const std::size_t payload = f.message.size();
  mgr_.transmit(local_, remote_, f.encode(), payload);
}

void Channel::on_data(std::uint64_t seq, Payload&& message) {
  reorder_[seq] = std::move(message);
  flush_in_order();
}

void Channel::flush_in_order() {
  if (!on_receive_) return;
  // Deliver contiguous messages; keep `this` alive in case a handler drops
  // the last owning reference from inside the callback.
  auto self = shared_from_this();
  for (auto it = reorder_.find(next_recv_seq_); it != reorder_.end();
       it = reorder_.find(next_recv_seq_)) {
    Payload msg = std::move(it->second);
    reorder_.erase(it);
    ++next_recv_seq_;
    on_receive_(std::move(msg));
  }
}

// --- ChannelManager ------------------------------------------------------------

ChannelManager::ChannelManager(Network& network) : network_(network) {}

void ChannelManager::ensure_bound(NodeId host) {
  if (bound_hosts_.contains(host)) return;
  bound_hosts_.insert(host);
  network_.bind(host, Port::kTcp, [this, host](Packet&& packet) {
    handle_packet(host, std::move(packet));
  });
}

void ChannelManager::listen(NodeId host, std::uint16_t tcp_port,
                            AcceptHandler on_accept) {
  ensure_bound(host);
  VDEP_ASSERT_MSG(!listeners_.contains({host, tcp_port}), "port already listening");
  listeners_[{host, tcp_port}] = std::move(on_accept);
}

void ChannelManager::stop_listening(NodeId host, std::uint16_t tcp_port) {
  listeners_.erase({host, tcp_port});
}

ChannelPtr ChannelManager::connect(NodeId from, NodeId to, std::uint16_t tcp_port) {
  ensure_bound(from);
  ensure_bound(to);
  const ChannelId id{next_channel_++};
  auto channel = std::shared_ptr<Channel>(new Channel(*this, id, from, to));
  endpoints_[{from, id.value()}] = channel;

  Frame syn{FrameType::kSyn, id.value(), tcp_port, 0, {}};
  transmit(from, to, syn.encode(), 0);
  return channel;
}

void ChannelManager::transmit(NodeId from, NodeId to, Payload frame,
                              std::size_t payload_bytes) {
  Packet p;
  p.src = from;
  p.dst = to;
  p.port = Port::kTcp;
  p.wire_bytes = wire_bytes(payload_bytes, calib::kTcpIpHeaderBytes);
  p.payload = std::move(frame);
  p.reliable = true;
  network_.send(std::move(p));
}

void ChannelManager::handle_packet(NodeId host, Packet&& packet) {
  Frame f = wire::decode<Frame>(packet.payload);  // the message aliases the packet
  const auto key = std::make_pair(host, f.channel);

  if (f.type == FrameType::kSyn) {
    auto lit = listeners_.find({host, f.tcp_port});
    if (lit == listeners_.end()) return;  // SYN to a closed port: dropped
    auto channel =
        std::shared_ptr<Channel>(new Channel(*this, ChannelId{f.channel}, host, packet.src));
    endpoints_[key] = channel;
    lit->second(channel);
    // Replay any data that raced ahead of the SYN.
    if (auto pit = pending_frames_.find(key); pit != pending_frames_.end()) {
      auto frames = std::move(pit->second);
      pending_frames_.erase(pit);
      for (auto& raw : frames) {
        Packet replay;
        replay.src = packet.src;
        replay.dst = host;
        replay.payload = std::move(raw);
        handle_packet(host, std::move(replay));
      }
    }
    return;
  }

  auto it = endpoints_.find(key);
  std::shared_ptr<Channel> channel;
  if (it != endpoints_.end()) channel = it->second.lock();
  if (!channel) {
    // Data outracing the SYN: park the received frame as-is — sharing the
    // buffer, not re-encoding it. (Frames for genuinely dead channels
    // accumulate here only until the manager is destroyed with the network.)
    pending_frames_[key].push_back(std::move(packet.payload));
    return;
  }

  channel->on_data(f.seq, std::move(f.message));
}

}  // namespace vdep::net
