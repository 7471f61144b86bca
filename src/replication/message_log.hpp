// The request log kept by passive backups (and by joining replicas while
// they await a state transfer).
//
// Entries are kept in the replica's local delivery order. A checkpoint's
// per-client applied map truncates the covered prefix (every entry whose
// retention id the snapshot already reflects); what remains is exactly what
// a promoted backup must replay.
#pragma once

#include <cstdint>
#include <map>

#include "obs/trace_context.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"
#include "util/time.hpp"

namespace vdep::replication {

struct LoggedRequest {
  std::uint64_t index = 0;   // local delivery index (1-based, per replica)
  RequestId request_id;      // FT_REQUEST identity
  NodeId client_daemon;      // where to send the reply on replay
  SimTime expiration = kTimeZero;  // FT_REQUEST expiration (0 = none)
  Payload giop;              // the raw request (shared with the RequestRecord)
  obs::TraceContext trace;   // caller's context, so replayed spans re-link
};

class MessageLog {
 public:
  void append(LoggedRequest entry);

  // Drops every entry already covered by the applied map (retention id at or
  // below the client's entry).
  void truncate_applied(const std::map<ProcessId, std::uint64_t>& applied);

  // All retained entries in delivery order; the log is cleared. Used by
  // promotion/rollback replay.
  [[nodiscard]] std::vector<LoggedRequest> take_all();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  void clear();

 private:
  std::map<std::uint64_t, LoggedRequest> entries_;
  std::size_t bytes_ = 0;
};

}  // namespace vdep::replication
