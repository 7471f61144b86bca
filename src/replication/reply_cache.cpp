#include "replication/reply_cache.hpp"

#include <iterator>

#include "util/assert.hpp"
#include "util/wire.hpp"

namespace vdep::replication {

ReplyCache::ReplyCache(std::size_t capacity) : capacity_(capacity) {
  VDEP_ASSERT(capacity > 0);
}

void ReplyCache::put(const RequestId& id, Payload reply_giop) {
  auto [it, inserted] = entries_.emplace(id, std::move(reply_giop));
  if (!inserted) {
    // Replay after failover can re-record a reply; deterministic execution
    // means the bytes match, so keep the original.
    return;
  }
  order_.push_back(id);
  ++added_;
  evict_to(capacity_);
}

void ReplyCache::evict_to(std::size_t limit) {
  while (entries_.size() > limit) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

std::optional<Payload> ReplyCache::get(const RequestId& id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool ReplyCache::contains(const RequestId& id) const { return entries_.contains(id); }

Payload ReplyCache::serialize_recent(std::size_t max_entries) const {
  const std::size_t n = std::min(max_entries, order_.size());
  Replies replies;
  replies.entries.reserve(n);
  // Walk back from the newest entry: O(n), not O(cache size).
  for (auto it = std::prev(order_.end(), static_cast<std::ptrdiff_t>(n));
       it != order_.end(); ++it) {
    replies.entries.emplace_back(*it, entries_.at(*it));
  }
  return wire::encode(replies);
}

ReplyCache::Replies ReplyCache::decode(const Payload& raw) {
  return wire::decode<Replies>(raw);
}

void ReplyCache::restore(Replies replies) {
  clear();
  for (auto& [id, reply] : replies.entries) put(id, std::move(reply));
}

void ReplyCache::append(Replies replies, std::size_t keep) {
  for (auto& [id, reply] : replies.entries) put(id, std::move(reply));
  evict_to(keep);
}

void ReplyCache::clear() {
  entries_.clear();
  order_.clear();
}

}  // namespace vdep::replication
