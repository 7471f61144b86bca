#include "replication/message_log.hpp"

#include "util/assert.hpp"

namespace vdep::replication {

void MessageLog::append(LoggedRequest entry) {
  bytes_ += entry.giop.size();
  const auto index = entry.index;
  auto [it, inserted] = entries_.emplace(index, std::move(entry));
  VDEP_ASSERT_MSG(inserted, "duplicate log index");
}

void MessageLog::truncate_applied(const std::map<ProcessId, std::uint64_t>& applied) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto ait = applied.find(it->second.request_id.client);
    const bool covered = ait != applied.end() && it->second.request_id.seq <= ait->second;
    if (covered) {
      bytes_ -= it->second.giop.size();
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<LoggedRequest> MessageLog::take_all() {
  std::vector<LoggedRequest> out;
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
