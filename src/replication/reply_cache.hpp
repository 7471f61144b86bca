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
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

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
  // Replies recorded so far (re-recorded ones excluded), never reset: a
  // checkpoint taker diffs it between cuts to know how many are new.
  [[nodiscard]] std::uint64_t added() const { return added_; }

  // Only the newest `max_entries` replies, oldest first — what checkpoints
  // carry. Older replies are past the client retransmission window
  // (FT-CORBA's request duration policy), so a promoted backup never needs
  // them.
  [[nodiscard]] Payload serialize_recent(std::size_t max_entries) const;

  // Serialized replies, oldest first, decoded whole.
  struct Replies {
    std::vector<std::pair<RequestId, Payload>> entries;

    template <typename IO>
    friend void wire_fields(IO& io, Replies& m) {
      io.seq(m.entries, 20);  // client + seq + reply length
    }
  };
  // Throws DecodeError on a malformed list. The replies alias `raw`'s
  // buffer when it carries an owner.
  [[nodiscard]] static Replies decode(const Payload& raw);
  // Replaces the cache with `replies` (a full checkpoint's).
  void restore(Replies replies);
  // Appends `replies` (a delta checkpoint's), then keeps only the newest
  // `keep` entries.
  void append(Replies replies, std::size_t keep);
  void clear();

 private:
  void evict_to(std::size_t limit);

  std::size_t capacity_;
  std::uint64_t added_ = 0;
  // Insertion-ordered FIFO eviction; a map from id to the reply plus the FIFO
  // queue of ids. (LRU would touch on get; FIFO matches "old requests have
  // expired" semantics from FT-CORBA's request duration policy.)
  std::map<RequestId, Payload> entries_;
  std::deque<RequestId> order_;
};

}  // namespace vdep::replication
