// Reply cache: duplicate suppression across client retransmissions and
// primary failovers.
//
// Keyed by the FT_REQUEST identity (client process, retention id). When a
// request is re-delivered — because the client retried after a failover, or
// because the group-communication layer re-ordered a forward during a leader
// takeover — the replica resends the cached reply instead of re-executing,
// which is what makes the end-to-end semantics exactly-once with respect to
// application state. The cache travels inside checkpoints so promoted
// backups inherit it.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>

#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"

namespace vdep::replication {

class ReplyCache {
 public:
  explicit ReplyCache(std::size_t capacity = 4096);

  // Records the reply for a request; evicts the oldest entry at capacity.
  // The cached buffer is shared with the reply in flight, not copied.
  void put(const RequestId& id, Payload reply_giop);

  [[nodiscard]] std::optional<Payload> get(const RequestId& id) const;
  [[nodiscard]] bool contains(const RequestId& id) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Only the newest `max_entries` replies — what checkpoints carry. Older
  // replies are past the client retransmission window (FT-CORBA's request
  // duration policy), so a promoted backup never needs them.
  [[nodiscard]] Bytes serialize_recent(std::size_t max_entries) const;
  // Restored entries alias `raw`'s buffer when it carries an owner.
  void restore(const Payload& raw);
  void clear();

 private:
  void evict_to_capacity();

  std::size_t capacity_;
  // Insertion-ordered FIFO eviction; a map from id to the reply plus the FIFO
  // queue of ids. (LRU would touch on get; FIFO matches "old requests have
  // expired" semantics from FT-CORBA's request duration policy.)
  std::map<RequestId, Payload> entries_;
  std::list<RequestId> order_;
};

}  // namespace vdep::replication
