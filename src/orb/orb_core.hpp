// Client- and server-side ORB cores.
//
// The client ORB marshals requests, correlates replies by request id and
// hands bytes to a pluggable ClientTransport — the plain TCP transports
// below, or the replicator's redirecting one
// (replication::ClientCoordinator). The server ORB unmarshals requests,
// dispatches through the POA and marshals replies back through whatever
// sender the transport supplied. Each traversal charges the calibrated ORB
// cost (Fig. 3: 398 us per round trip across 4 traversals).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "net/channel.hpp"
#include "obs/tracer.hpp"
#include "orb/giop.hpp"
#include "orb/object_ref.hpp"
#include "orb/poa.hpp"
#include "sim/actor.hpp"
#include "util/calibration.hpp"

namespace vdep::orb {

// Transport used by a ClientOrb to move GIOP bytes toward a server object.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  using ReplyHandler = std::function<void(Payload&&)>;

  virtual void send_request(const ObjectRef& ref, Payload giop) = 0;
  // Best-effort: stop work for an abandoned request.
  virtual void cancel(std::uint32_t /*request_id*/) {}

  void set_reply_handler(ReplyHandler handler) { on_reply_ = std::move(handler); }

 protected:
  void deliver_reply(Payload&& giop) {
    if (on_reply_) on_reply_(std::move(giop));
  }

 private:
  ReplyHandler on_reply_;
};

class ClientOrb {
 public:
  ClientOrb(net::Network& network, sim::Process& process,
            SimTime traversal_cost = calib::kOrbTraversal);

  // The ORB owns its transport.
  void use_transport(std::unique_ptr<ClientTransport> transport);
  [[nodiscard]] ClientTransport* transport() { return transport_.get(); }

  using ResponseCb = std::function<void(ReplyStatus, Bytes body)>;

  // Marshals and sends; `cb` fires when the correlated reply arrives.
  // Returns the GIOP request id (also the FT retention id).
  std::uint32_t invoke(const ObjectRef& ref, const std::string& operation, Bytes args,
                       ResponseCb cb);

  // Drops the pending callback and tells the transport to stop.
  void cancel(std::uint32_t request_id);

  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  [[nodiscard]] sim::Process& process() { return process_; }

 private:
  void on_reply_bytes(Payload&& giop);

  // The root span of each in-flight request lives here: opened at invoke(),
  // closed when the correlated reply (or a cancel) retires the entry.
  struct Pending {
    ResponseCb cb;
    obs::Span span;
  };

  net::Network& network_;
  sim::Process& process_;
  SimTime traversal_cost_;
  std::unique_ptr<ClientTransport> transport_;
  std::uint32_t next_request_id_ = 1;
  std::map<std::uint32_t, Pending> pending_;
};

class ServerOrb {
 public:
  ServerOrb(net::Network& network, sim::Process& process, Poa& poa,
            SimTime traversal_cost = calib::kOrbTraversal);

  // The reply continuation rides both CPU events of a dispatch, so it is
  // stored inline and sized to nest inside an EventClosure: 72 bytes hold
  // the replicator's continuation.
  using ReplySender = sim::Closure<void(Payload giop_reply), 72>;

  // Feeds one GIOP request; unmarshals, dispatches, and (if a response is
  // expected) marshals the reply into `send_reply`.
  void handle_request(Payload giop_request, ReplySender send_reply);

  [[nodiscard]] Poa& poa() { return poa_; }
  [[nodiscard]] sim::Process& process() { return process_; }

 private:
  net::Network& network_;
  sim::Process& process_;
  Poa& poa_;
  SimTime traversal_cost_;
};

// --- plain TCP transports (the non-replicated path of Fig. 4) -----------------
//
// An `intercepted` side models MEAD trapping the ORB's socket calls without
// redirecting them: it charges calib::kInterceptOnlyTraversal on its host
// CPU around every request and reply it carries; a plain side charges
// nothing and queues no CPU work.

class DirectClientTransport final : public ClientTransport {
 public:
  DirectClientTransport(net::ChannelManager& channels, sim::Process& process,
                        bool intercepted = false);

  void send_request(const ObjectRef& ref, Payload giop) override;

 private:
  // Runs `fn` at once on a plain side; on an intercepted one, after one
  // trampoline on the host CPU and only if the process still lives.
  template <typename F>
  void pass(F&& fn);

  net::ChannelManager& channels_;
  sim::Process& process_;
  bool intercepted_;
  std::map<std::pair<NodeId, std::uint16_t>, net::ChannelPtr> connections_;
};

// Accepts connections and pumps requests into a ServerOrb; replies return on
// the originating channel.
class DirectServerAcceptor {
 public:
  DirectServerAcceptor(net::ChannelManager& channels, NodeId host, std::uint16_t port,
                       ServerOrb& orb, bool intercepted = false);
  ~DirectServerAcceptor();

  DirectServerAcceptor(const DirectServerAcceptor&) = delete;
  DirectServerAcceptor& operator=(const DirectServerAcceptor&) = delete;

 private:
  net::ChannelManager& channels_;
  NodeId host_;
  std::uint16_t port_;
  std::vector<net::ChannelPtr> accepted_;
};

}  // namespace vdep::orb
