// Object references (IOR-style), with both a plain IIOP-like profile and a
// replicated-group profile (the FT-CORBA IOGR idea): a reference can name a
// concrete endpoint (host + port), a replica group, or both. The client-side
// infrastructure picks the profile that matches its configuration — direct
// TCP for the baseline, group multicast when the replicator is interposed.
#pragma once

#include <cstdint>
#include <optional>

#include "util/ids.hpp"

namespace vdep::orb {

struct DirectProfile {
  NodeId host;
  std::uint16_t port = 0;

  friend bool operator==(const DirectProfile&, const DirectProfile&) = default;
};

struct GroupProfile {
  GroupId group;

  friend bool operator==(const GroupProfile&, const GroupProfile&) = default;
};

struct ObjectRef {
  ObjectId object_key;
  std::optional<DirectProfile> direct;
  std::optional<GroupProfile> group;

  friend bool operator==(const ObjectRef&, const ObjectRef&) = default;
};

}  // namespace vdep::orb
