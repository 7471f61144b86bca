// Common types for the group-communication subsystem.
//
// Modelled on the Spread toolkit's service levels (the paper, Sec. 3.1:
// "best effort (no guarantees), FIFO (by sender), causal and atomic").
// Internally every reliable service is carried on one totally-ordered stream
// per group (a sequencer design): total order implies FIFO and group-local
// causal order, and SAFE additionally waits for stability (all member
// daemons hold the message) before delivery.
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace_context.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"

namespace vdep::gcs {

enum class ServiceType : std::uint8_t {
  kBestEffort = 0,  // may be dropped or reordered
  kReliable = 1,    // delivered to all live members, total order
  kFifo = 2,        // per-sender order (subsumed by total order)
  kCausal = 3,      // causal order within the group (subsumed by total order)
  kAgreed = 4,      // total order ("atomic")
  kSafe = 5,        // total order + stability (all member daemons hold it)
};

[[nodiscard]] std::string to_string(ServiceType svc);

// Identifies a multicast uniquely within a group across retransmissions and
// leader takeovers: the sending process and its per-group send counter.
struct OriginId {
  ProcessId sender;
  std::uint64_t seq = 0;

  template <typename IO>
  friend void wire_fields(IO& io, OriginId& m) { io(m.sender, m.seq); }
  friend constexpr auto operator<=>(const OriginId&, const OriginId&) = default;
};

// What an Endpoint receives for a regular multicast.
struct GroupMessage {
  GroupId group;
  ServiceType svc = ServiceType::kAgreed;
  ProcessId sender;
  NodeId sender_daemon;  // lets receivers reply point-to-point
  Payload payload;  // shares the ordered message's buffer across local members
  obs::TraceContext trace;  // causal context from the sender (zeros if none)
};

// Point-to-point datagram (Spread "private group" unicast): reliable and
// FIFO per sender/destination pair, not part of any group's total order.
struct PrivateMessage {
  ProcessId sender;
  ProcessId destination;
  Payload payload;
  obs::TraceContext trace;  // causal context from the sender (zeros if none)
};

}  // namespace vdep::gcs
