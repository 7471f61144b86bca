// Client-side replicator: coordinates a client's interactions with a server
// replica group (paper Sec. 3.1, "coordinating the client interactions with
// the server replicas").
//
// Plugs into the client ORB as its transport (this *is* the library
// interposition on the client side): it rewrites each outgoing GIOP request
// with an FT_REQUEST service context, multicasts it AGREED into the server
// group, and coordinates the replies that replicas unicast back —
//   first-reply:     accept the first, drop duplicates (trusted replicas);
//   majority-voting: compare reply bodies across replicas and deliver once a
//                    majority of the current view agrees (Byzantine-tolerant
//                    reads, paper Sec. 3.1).
// A retransmission timer makes requests survive primary failovers; replica
// reply caches make the retries idempotent.
#pragma once

#include <map>
#include <set>

#include "gcs/endpoint.hpp"
#include "orb/orb_core.hpp"
#include "replication/types.hpp"

namespace vdep::replication {

enum class ResponsePolicy : std::uint8_t {
  kFirstReply = 0,
  kMajorityVoting = 1,
};

struct ClientCoordinatorParams {
  ResponsePolicy policy = ResponsePolicy::kFirstReply;
};

class ClientCoordinator final : public orb::ClientTransport {
 public:
  ClientCoordinator(net::Network& network, gcs::Daemon& daemon, sim::Process& process,
                    ClientCoordinatorParams params = {});

  void send_request(const orb::ObjectRef& ref, Payload giop) override;
  void cancel(std::uint32_t request_id) override;

  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_.size(); }
  [[nodiscard]] gcs::Endpoint& endpoint() { return *endpoint_; }

 private:
  struct Pending {
    GroupId group;
    Payload wire;  // envelope frame, encoded once and shared across retries
    int retries = 0;
    sim::EventHandle retry_timer;
    // Open from first transmit to completion; retries and the final outcome
    // are recorded as notes, so a failover shows as one long coord.send span.
    obs::Span span;
    // Voting state.
    std::map<std::uint64_t, int> votes;          // body hash -> count
    std::map<std::uint64_t, Payload> exemplars;  // body hash -> a reply
    std::set<ProcessId> voters;
    std::uint32_t best_view_size = 0;
  };

  void on_private(const gcs::PrivateMessage& msg);
  void transmit(std::uint32_t request_id, Pending& pending);
  void arm_retry(std::uint32_t request_id);
  void complete(std::uint32_t request_id, Payload reply);

  net::Network& network_;
  sim::Process& process_;
  ClientCoordinatorParams params_;
  std::unique_ptr<gcs::Endpoint> endpoint_;
  std::map<std::uint32_t, Pending> outstanding_;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace vdep::replication
