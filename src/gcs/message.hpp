// Wire messages of the daemon-to-daemon protocol.
//
// Outer framing on net::Port::kGcsDaemon (see reliable_link.hpp):
//   HEARTBEAT       — failure detection, unreliable
//   LINK_DATA/ACK   — reliable FIFO link layer carrying one inner message
//
// Inner messages (this file):
//   Forward    — member daemon -> leader: please order this multicast /
//                membership operation
//   Ordered    — leader -> member daemons: sequenced message or view change
//   OrdAck     — member daemon -> leader: I hold (group, epoch, seq)
//   StableMsg  — leader -> member daemons: stability watermark
//   Takeover   — new leader -> all daemons: leadership change, send state
//   SyncState  — daemon -> new leader: buffered messages, pending forwards,
//                latest views
//   PrivateMsg — point-to-point datagram between processes (Spread private
//                groups), off the ordered stream
#pragma once

#include <variant>
#include <vector>

#include "gcs/types.hpp"
#include "gcs/view.hpp"

namespace vdep::gcs {

struct Forward {
  enum class Kind : std::uint8_t { kData = 0, kJoin = 1, kLeave = 2, kCrash = 3 };

  GroupId group;
  Kind kind = Kind::kData;
  ServiceType svc = ServiceType::kAgreed;
  OriginId origin;         // sending process + its per-group counter
  NodeId origin_daemon;    // daemon serving the sending process
  Payload payload;
  obs::TraceContext trace;  // sender's causal context (zeros when untraced)

  template <typename IO>
  friend void wire_fields(IO& io, Forward& m) {
    io(m.group);
    io.enum_in(m.kind, Kind::kData, Kind::kCrash, "bad forward kind");
    io.enum_in(m.svc, ServiceType::kBestEffort, ServiceType::kSafe, "bad service type");
    io(m.origin, m.origin_daemon, m.payload, m.trace);
  }
};

struct Ordered {
  enum class Kind : std::uint8_t { kData = 0, kView = 1 };

  GroupId group;
  std::uint64_t epoch = 0;  // == view id of the governing view
  std::uint64_t seq = 0;    // 0 for the view message itself, then 1, 2, ...
  Kind kind = Kind::kData;
  ServiceType svc = ServiceType::kAgreed;
  OriginId origin;
  NodeId origin_daemon;
  Payload payload;          // app payload, or View::encode() for kView
  // kView only: the last sequence number of the previous epoch, so receivers
  // know when the old epoch's stream is complete.
  std::uint64_t prev_epoch_end = 0;
  // Piggybacked stability watermark for (group, epoch), as a count: every
  // member daemon holds all messages with seq < stable_upto.
  std::uint64_t stable_upto = 0;
  obs::TraceContext trace;  // carried through from the Forward

  template <typename IO>
  friend void wire_fields(IO& io, Ordered& m) {
    io(m.group, m.epoch, m.seq);
    io.enum_in(m.kind, Kind::kData, Kind::kView, "bad ordered kind");
    io.enum_in(m.svc, ServiceType::kBestEffort, ServiceType::kSafe, "bad service type");
    io(m.origin, m.origin_daemon, m.payload, m.prev_epoch_end, m.stable_upto, m.trace);
  }
};

struct OrdAck {
  NodeId from;
  GroupId group;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;  // cumulative: holds everything <= seq in epoch

  template <typename IO>
  friend void wire_fields(IO& io, OrdAck& m) { io(m.from, m.group, m.epoch, m.seq); }
};

struct StableMsg {
  GroupId group;
  std::uint64_t epoch = 0;
  std::uint64_t upto = 0;  // count: seqs < upto are stable

  template <typename IO>
  friend void wire_fields(IO& io, StableMsg& m) { io(m.group, m.epoch, m.upto); }
};

// Leader -> origin daemon: the forward identified by (group, origin) has been
// ordered. Lets daemons whose processes are *not* members of the group (e.g.
// a client multicasting requests into a server group) clear their pending
// forwards; member daemons clear them on seeing the ordered message itself.
struct FwdAck {
  GroupId group;
  OriginId origin;

  template <typename IO>
  friend void wire_fields(IO& io, FwdAck& m) { io(m.group, m.origin); }
};

struct Takeover {
  std::uint64_t term = 0;  // monotone leadership term
  NodeId leader;

  template <typename IO>
  friend void wire_fields(IO& io, Takeover& m) { io(m.term, m.leader); }
};

struct SyncState {
  std::uint64_t term = 0;
  NodeId from;
  std::vector<Ordered> buffered;   // unstable ordered messages this daemon holds
  std::vector<Forward> pending;    // forwards not yet seen ordered
  std::vector<View> views;         // latest view per group this daemon knows
  std::vector<OrdAck> acks;        // current contiguous-receipt watermarks

  // Smallest encodings: Ordered 86 bytes, Forward 54, a length-prefixed
  // View 24, OrdAck 32.
  template <typename IO>
  friend void wire_fields(IO& io, SyncState& m) {
    io(m.term, m.from);
    io.seq(m.buffered, 86);
    io.seq(m.pending, 54);
    io.seq_blobs(m.views, 24);
    io.seq(m.acks, 32);
  }
};

struct PrivateMsg {
  ProcessId sender;
  NodeId sender_daemon;
  ProcessId destination;
  Payload payload;
  obs::TraceContext trace;  // sender's causal context (zeros when untraced)

  template <typename IO>
  friend void wire_fields(IO& io, PrivateMsg& m) {
    io(m.sender, m.sender_daemon, m.destination, m.payload, m.trace);
  }
};

// An encoded inner message starts with a tag byte: the alternative's index
// + 1. Append new alternatives at the end so no existing tag moves.
using InnerMsg = std::variant<Forward, Ordered, OrdAck, StableMsg, Takeover, SyncState,
                              PrivateMsg, FwdAck>;

// Encodes to a frozen, shareable frame: fan-out paths encode once and hand
// the same Payload to every destination.
[[nodiscard]] Payload encode_inner(const InnerMsg& msg);
// Decoded payload fields alias `frame` (they hold a refcount on it), so no
// byte copies happen on the receive path.
[[nodiscard]] InnerMsg decode_inner(const Payload& frame);
// Copying overload for callers holding a plain buffer (tests, fuzz inputs).
[[nodiscard]] InnerMsg decode_inner(std::span<const std::uint8_t> raw);

// Number of encode_inner() calls by the *calling thread* since it started;
// lets tests assert the encode-once fan-out invariant (N destinations, one
// encode). Thread-local so parallel campaign trials do not race it.
[[nodiscard]] std::uint64_t encode_inner_count();

// Application payload bytes carried by an inner message (for wire-size
// accounting: headers are charged separately).
[[nodiscard]] std::size_t inner_payload_size(const InnerMsg& msg);

}  // namespace vdep::gcs
