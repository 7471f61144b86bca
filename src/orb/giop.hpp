// GIOP-style inter-ORB messages.
//
// A faithful-in-shape subset of GIOP 1.2: magic "GIOP", version, byte-order
// flag (always little-endian; decode rejects the other order), message type,
// and Request/Reply bodies with request ids, object
// keys, operation names and service contexts. The replicator understands and
// rewrites these messages — in particular it injects the FT_REQUEST service
// context (client identity + retention id) that makes requests idempotent
// across failover, exactly as FT-CORBA prescribes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "orb/cdr.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace vdep::orb {

enum class GiopMsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kCancelRequest = 2,
  kCloseConnection = 5,
  kMessageError = 6,
};

enum class ReplyStatus : std::uint32_t {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
  kLocationForward = 3,
};

struct ServiceContext {
  std::uint32_t context_id = 0;
  Payload data;  // a CDR encapsulation of one field list

  template <typename IO>
  friend void wire_fields(IO& io, ServiceContext& m) {
    io(m.context_id, m.data);
  }

  friend bool operator==(const ServiceContext&, const ServiceContext&) = default;
};

// Service-context ids (FT-CORBA uses 0x464f_0000 "FT\0\0" ranges; we keep
// recognizable tags).
inline constexpr std::uint32_t kFtRequestContextId = 0x46540001;   // "FT"+1
inline constexpr std::uint32_t kFtGroupVersionContextId = 0x46540002;
// Trace-context propagation (an obs::TraceContext): the caller's {trace,
// span} ride the request so server-side spans parent under the client span.
// Always injected on the replicated path (zeros when tracing is off) so
// message sizes — and therefore simulated timing — do not depend on whether
// the tracer is enabled.
inline constexpr std::uint32_t kTraceContextId = 0x46540003;

// A message with more service contexts than this is rejected.
inline constexpr std::size_t kMaxServiceContexts = 64;

// A context carrying `value` in CDR.
template <typename T>
[[nodiscard]] ServiceContext to_context(std::uint32_t id, const T& value) {
  return ServiceContext{id, cdr_encode(value)};
}

// The first context tagged `id`, decoded; nullopt when there is none.
template <typename T>
[[nodiscard]] std::optional<T> from_contexts(const std::vector<ServiceContext>& contexts,
                                             std::uint32_t id) {
  for (const auto& sc : contexts) {
    if (sc.context_id == id) return cdr_decode<T>(sc.data);
  }
  return std::nullopt;
}

// FT_REQUEST service context payload: identifies the logical request across
// retransmissions so server replicas can suppress duplicates.
struct FtRequestContext {
  ProcessId client;
  std::uint64_t retention_id = 0;  // == client ORB request id
  NodeId client_daemon;            // where replies should be unicast
  SimTime expiration = kTimeZero;  // paper/FT-CORBA: request expiration time

  template <typename IO>
  friend void wire_fields(IO& io, FtRequestContext& m) {
    io(m.client, m.retention_id, m.client_daemon, m.expiration);
  }

  [[nodiscard]] ServiceContext to_context() const {
    return orb::to_context(kFtRequestContextId, *this);
  }
  static std::optional<FtRequestContext> from_contexts(
      const std::vector<ServiceContext>& contexts) {
    return orb::from_contexts<FtRequestContext>(contexts, kFtRequestContextId);
  }
};

// FT group-version context on replies: the replying replica's view, so a
// voting client knows how many replies make a majority.
struct FtGroupVersion {
  std::uint64_t view_id = 0;
  std::uint32_t view_size = 0;
  std::uint32_t rank = 0;

  template <typename IO>
  friend void wire_fields(IO& io, FtGroupVersion& m) {
    io(m.view_id, m.view_size, m.rank);
  }
};

struct RequestMessage {
  std::uint32_t request_id = 0;
  bool response_expected = true;
  ObjectId object_key;
  std::string operation;
  std::vector<ServiceContext> service_contexts;
  // CDR-encoded in-args. A decoded body aliases the message; to encode, a
  // body may also be an owner-less view of bytes that outlive encode().
  Payload body;

  [[nodiscard]] Payload encode() const;

  template <typename IO>
  friend void wire_fields(IO& io, RequestMessage& m) {
    std::uint8_t response_flags = m.response_expected ? 0x03 : 0x00;  // GIOP 1.2
    io(m.request_id, response_flags, m.object_key, m.operation);
    io.seq(m.service_contexts, 8);
    io.check(m.service_contexts.size() <= kMaxServiceContexts, "too many service contexts");
    io.align(8);  // GIOP 1.2 aligns the body
    io.rest(m.body);
    if constexpr (IO::kDecoding) m.response_expected = (response_flags & 0x03) != 0;
  }
};

struct ReplyMessage {
  std::uint32_t request_id = 0;
  ReplyStatus status = ReplyStatus::kNoException;
  std::vector<ServiceContext> service_contexts;
  Payload body;  // CDR-encoded result / exception, as RequestMessage::body

  [[nodiscard]] Payload encode() const;

  template <typename IO>
  friend void wire_fields(IO& io, ReplyMessage& m) {
    io(m.request_id);
    io.enum_in(m.status, ReplyStatus::kNoException, ReplyStatus::kLocationForward,
               "bad reply status");
    io.seq(m.service_contexts, 8);
    io.check(m.service_contexts.size() <= kMaxServiceContexts, "too many service contexts");
    io.align(8);
    io.rest(m.body);
  }
};

// Decoded GIOP message (tagged).
struct GiopMessage {
  GiopMsgType type = GiopMsgType::kMessageError;
  std::optional<RequestMessage> request;  // kRequest
  std::optional<ReplyMessage> reply;      // kReply
};

// Service-context data and bodies decoded from a Payload alias it; the span
// overload copies them.
[[nodiscard]] GiopMessage decode_giop(const Payload& raw);
[[nodiscard]] GiopMessage decode_giop(std::span<const std::uint8_t> raw);

}  // namespace vdep::orb
