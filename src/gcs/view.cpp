#include "gcs/view.hpp"

#include <algorithm>
#include <sstream>

#include "util/wire.hpp"

namespace vdep::gcs {

bool View::contains(ProcessId p) const {
  return std::any_of(members.begin(), members.end(),
                     [p](const Member& m) { return m.process == p; });
}

std::optional<NodeId> View::daemon_of(ProcessId p) const {
  for (const auto& m : members) {
    if (m.process == p) return m.daemon;
  }
  return std::nullopt;
}

std::optional<std::size_t> View::rank_of(ProcessId p) const {
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].process == p) return i;
  }
  return std::nullopt;
}

Payload View::encode() const { return wire::encode(*this); }

View View::decode(std::span<const std::uint8_t> raw) { return wire::decode<View>(raw); }

std::string View::str() const {
  std::ostringstream os;
  os << "view(g=" << group.str() << ", id=" << view_id << ", members=[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) os << ",";
    os << members[i].process.str();
  }
  os << "])";
  return os.str();
}

}  // namespace vdep::gcs
