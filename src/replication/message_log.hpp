// The request log kept by passive backups (and by joining replicas while
// they await a state transfer).
//
// Entries are kept in the replica's local delivery order. A checkpoint's
// per-client applied frontier truncates the covered prefix (every entry whose
// retention id the snapshot already reflects); what remains is exactly what
// a promoted backup must replay.
#pragma once

#include <cstdint>
#include <map>

#include "obs/trace_context.hpp"
#include "replication/types.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"
#include "util/time.hpp"

namespace vdep::replication {

// A client request as delivered by the group layer, with its FT identity:
// what the replicator executes and what the log keeps.
struct RequestRecord {
  std::uint64_t index = 0;         // local delivery index (1-based, per replica)
  RequestId request_id;            // FT_REQUEST identity
  NodeId client_daemon;            // where the reply goes
  SimTime expiration = kTimeZero;  // FT_REQUEST expiration (0 = none)
  Payload giop;                    // raw GIOP request (aliases the delivered frame)
  obs::TraceContext trace;         // caller's context, so replayed spans re-link
};

class MessageLog {
 public:
  void append(RequestRecord entry);

  // Drops every entry already covered by the applied frontier (retention id
  // at or below the client's entry).
  void truncate_applied(const AppliedFrontier& applied);
  // The same, reading each client's frontier through `frontier_of(client)`
  // (0 when the client has none).
  template <typename FrontierOf>
  void truncate_covered(FrontierOf&& frontier_of) {
    std::erase_if(entries_, [&](const auto& kv) {
      const RequestRecord& e = kv.second;
      if (e.request_id.seq > frontier_of(e.request_id.client)) return false;
      bytes_ -= e.giop.size();
      return true;
    });
  }

  // All retained entries in delivery order; the log is cleared. Used by
  // promotion/rollback replay.
  [[nodiscard]] std::vector<RequestRecord> take_all();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  void clear();

 private:
  std::map<std::uint64_t, RequestRecord> entries_;
  std::size_t bytes_ = 0;
};

}  // namespace vdep::replication
