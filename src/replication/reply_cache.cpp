#include "replication/reply_cache.hpp"

#include "util/assert.hpp"

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
  evict_to_capacity();
}

void ReplyCache::evict_to_capacity() {
  while (entries_.size() > capacity_) {
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

Bytes ReplyCache::serialize_recent(std::size_t max_entries) const {
  const std::size_t n = std::min(max_entries, order_.size());
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(n));
  auto it = order_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(order_.size() - n));
  for (; it != order_.end(); ++it) {
    w.u64(it->client.value());
    w.u64(it->seq);
    w.bytes(entries_.at(*it));
  }
  return std::move(w).take();
}

void ReplyCache::restore(const Payload& raw) {
  clear();
  ByteReader r(raw.owner(), raw);
  const auto n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    RequestId id;
    id.client = ProcessId{r.u64()};
    id.seq = r.u64();
    put(id, read_payload(r));
  }
}

void ReplyCache::clear() {
  entries_.clear();
  order_.clear();
}

}  // namespace vdep::replication
