// TCP-like message channels: reliable, ordered, connection-oriented pipes
// between two hosts.
//
// This is the transport the unmodified CORBA path uses (the "no interceptor"
// baseline of Fig. 4): a client ORB connects to a server ORB and exchanges
// GIOP messages over a channel. Message boundaries are preserved (one send ==
// one receive), matching how the ORB reads whole GIOP messages off a socket.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "net/network.hpp"

namespace vdep::net {

class ChannelManager;

class Channel : public std::enable_shared_from_this<Channel> {
 public:
  using ReceiveHandler = std::function<void(Payload&&)>;
  using CloseHandler = std::function<void()>;

  // Delivered messages arrive through this handler, in send order.
  void set_receive_handler(ReceiveHandler handler);
  void set_close_handler(CloseHandler handler);

  // Sends one message to the peer. No-op on a closed channel. The message
  // buffer is frozen and shared with the in-flight frame.
  void send(Payload message);

  // Closes both directions; the peer's close handler fires.
  void close();

  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] NodeId local_host() const { return local_; }
  [[nodiscard]] ChannelId id() const { return id_; }

 private:
  friend class ChannelManager;

  Channel(ChannelManager& mgr, ChannelId id, NodeId local, NodeId remote);

  void on_data(std::uint64_t seq, Payload&& message);
  void on_fin();
  void flush_in_order();

  ChannelManager& mgr_;
  ChannelId id_;
  NodeId local_;
  NodeId remote_;
  bool open_ = true;
  std::uint64_t next_send_seq_ = 0;
  std::uint64_t next_recv_seq_ = 0;
  std::map<std::uint64_t, Payload> reorder_;  // aliases received packet frames
  ReceiveHandler on_receive_;
  CloseHandler on_close_;
};

using ChannelPtr = std::shared_ptr<Channel>;

class ChannelManager {
 public:
  using AcceptHandler = std::function<void(ChannelPtr)>;

  explicit ChannelManager(Network& network);

  // Accepts connections to (host, tcp_port).
  void listen(NodeId host, std::uint16_t tcp_port, AcceptHandler on_accept);
  void stop_listening(NodeId host, std::uint16_t tcp_port);

  // Opens a channel from `from` to the listener at (to, tcp_port). The
  // returned channel is usable immediately; data sent before the SYN lands
  // is buffered at the receiver.
  [[nodiscard]] ChannelPtr connect(NodeId from, NodeId to, std::uint16_t tcp_port);

  [[nodiscard]] Network& network() { return network_; }

 private:
  friend class Channel;

  void ensure_bound(NodeId host);
  void handle_packet(NodeId host, Packet&& packet);
  void transmit(NodeId from, NodeId to, Bytes frame, std::size_t payload_bytes);

  struct Endpoint {
    NodeId host;
    std::weak_ptr<Channel> channel;
  };

  Network& network_;
  std::uint64_t next_channel_ = 1;
  std::map<std::pair<NodeId, std::uint16_t>, AcceptHandler> listeners_;
  // Channel endpoints by (host, channel id): both sides of a channel share
  // the id but live on different hosts.
  std::map<std::pair<NodeId, std::uint64_t>, std::weak_ptr<Channel>> endpoints_;
  // Early data/fin frames for channels whose SYN has not landed yet; parks
  // the received frame itself (shared, not re-encoded).
  std::map<std::pair<NodeId, std::uint64_t>, std::vector<Payload>> pending_frames_;
  std::set<NodeId> bound_hosts_;
};

}  // namespace vdep::net
