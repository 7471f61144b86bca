#include "replication/message_log.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vdep::replication {

void MessageLog::append(RequestRecord entry) {
  bytes_ += entry.giop.size();
  const auto index = entry.index;
  auto [it, inserted] = entries_.emplace(index, std::move(entry));
  VDEP_ASSERT_MSG(inserted, "duplicate log index");
}

void MessageLog::truncate_applied(const AppliedFrontier& applied) {
  truncate_covered([&applied](ProcessId client) -> std::uint64_t {
    const auto it = std::ranges::lower_bound(applied, client, {},
                                             &AppliedFrontier::value_type::first);
    return it == applied.end() || it->first != client ? 0 : it->second;
  });
}

std::vector<RequestRecord> MessageLog::take_all() {
  std::vector<RequestRecord> out;
  out.reserve(entries_.size());
  // Move each entry out (the shared giop payload changes hands without a
  // refcount round-trip or buffer copy); the hollow map skeleton is then
  // discarded wholesale. bytes_ goes to zero with it — the moved-from
  // payloads no longer contribute.
  for (auto& [index, entry] : entries_) out.push_back(std::move(entry));
  entries_.clear();
  bytes_ = 0;
  return out;
}

void MessageLog::clear() {
  entries_.clear();
  bytes_ = 0;
}

}  // namespace vdep::replication
