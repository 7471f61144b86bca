// Group membership views.
//
// A view is the agreed membership of one group at one moment; views are
// delivered inside the group's totally-ordered message stream, so every
// member sees the same sequence of views interleaved identically with
// regular messages. The paper's switch protocol relies on exactly this
// property ("fault notifications are ordered consistently with respect to
// the 'switch' and the other messages").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace vdep::gcs {

struct Member {
  ProcessId process;
  NodeId daemon;  // host whose daemon serves this process

  template <typename IO>
  friend void wire_fields(IO& io, Member& m) { io(m.process, m.daemon); }
  friend constexpr auto operator<=>(const Member&, const Member&) = default;
};

struct View {
  GroupId group;
  // Monotonically increasing per group; also the epoch of the ordered stream.
  std::uint64_t view_id = 0;
  std::vector<Member> members;  // in seniority (join) order, oldest first

  [[nodiscard]] bool contains(ProcessId p) const;
  [[nodiscard]] std::optional<NodeId> daemon_of(ProcessId p) const;
  // Deterministic rank of a member (index in the seniority-ordered member
  // list); the replication layer uses rank 0 — the longest-lived member —
  // as the primary / preferred responder.
  [[nodiscard]] std::optional<std::size_t> rank_of(ProcessId p) const;
  [[nodiscard]] std::size_t size() const { return members.size(); }

  [[nodiscard]] Bytes encode() const;
  static View decode(std::span<const std::uint8_t> raw);
  template <typename IO>
  friend void wire_fields(IO& io, View& m) {
    io(m.group, m.view_id);
    io.seq(m.members, 16);  // process + daemon
  }

  [[nodiscard]] std::string str() const;

  friend bool operator==(const View&, const View&) = default;
};

}  // namespace vdep::gcs
