// Strongly-typed identifiers used across the stack.
//
// Each id is a distinct type so that a NodeId cannot be passed where a
// ProcessId is expected; all are ordered and hashable so they can key maps.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace vdep {

namespace detail {

// CRTP-free strong integer id. Tag makes each instantiation a distinct type.
template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint64_t v) : value_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  [[nodiscard]] std::string str() const {
    return valid() ? std::to_string(value_) : std::string("<none>");
  }

  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

 private:
  std::uint64_t value_ = kInvalid;
};

}  // namespace detail

// A physical host in the simulated testbed.
using NodeId = detail::StrongId<struct NodeTag>;
// An application or infrastructure process (a replica is a process).
using ProcessId = detail::StrongId<struct ProcessTag>;
// A group-communication group.
using GroupId = detail::StrongId<struct GroupTag>;
// A CORBA-style object key within a server process.
using ObjectId = detail::StrongId<struct ObjectTag>;
// A connection (TCP-like channel) endpoint pair instance.
using ChannelId = detail::StrongId<struct ChannelTag>;

// Identifies a client request uniquely across retransmissions: the issuing
// client process plus a client-local sequence number. Used for duplicate
// suppression in the replicator and for the reply cache.
struct RequestId {
  ProcessId client;
  std::uint64_t seq = 0;

  friend constexpr auto operator<=>(const RequestId&, const RequestId&) = default;
  template <typename IO>
  friend void wire_fields(IO& io, RequestId& m) {
    io(m.client, m.seq);
  }

  [[nodiscard]] std::string str() const {
    return client.str() + "#" + std::to_string(seq);
  }
};

}  // namespace vdep

template <typename Tag>
struct std::hash<vdep::detail::StrongId<Tag>> {
  std::size_t operator()(vdep::detail::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};

template <>
struct std::hash<vdep::RequestId> {
  std::size_t operator()(const vdep::RequestId& r) const noexcept {
    std::size_t h = std::hash<vdep::ProcessId>{}(r.client);
    return h ^ (std::hash<std::uint64_t>{}(r.seq) + 0x9e3779b97f4a7c15ULL + (h << 6) +
                (h >> 2));
  }
};
