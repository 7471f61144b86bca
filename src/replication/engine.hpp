// Strategy interface for replication styles — the tunable middle layer of
// the replicator stack (Fig. 2). The Replicator owns shared machinery
// (execution, reply cache, message log, checkpoint/quiescence, the switch
// protocol); engines decide who executes, who replies, who logs, and what a
// view change means for their style. Engines are swapped live by the switch
// protocol of Fig. 5.
#pragma once

#include "gcs/view.hpp"
#include "obs/trace_context.hpp"
#include "replication/types.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace vdep::replication {

class Replicator;

// A client request as delivered by the group layer, with its FT identity.
struct RequestRecord {
  std::uint64_t index = 0;  // local delivery index (1-based)
  RequestId rid;            // FT_REQUEST identity
  NodeId client_daemon;     // reply destination daemon
  SimTime expiration = kTimeZero;  // FT_REQUEST expiration (0 = none)
  Payload giop;             // raw GIOP request (aliases the delivered frame)
  obs::TraceContext trace;  // caller's context (from the GIOP trace context)
};

class ReplicationEngine {
 public:
  explicit ReplicationEngine(Replicator& replicator) : r_(replicator) {}
  virtual ~ReplicationEngine() = default;

  [[nodiscard]] virtual ReplicationStyle style() const = 0;

  // Whether this replica answers clients under the current view/role.
  [[nodiscard]] virtual bool responder() const = 0;

  // Engine activated: fresh start, post-switch, or post-promotion.
  virtual void on_start() {}

  // A client request delivered in total order.
  virtual void on_request(const RequestRecord& rec) = 0;

  // A checkpoint from another replica delivered in total order. The active
  // styles ignore it: their replicas are always current, and state transfers
  // to joiners are handled before the engine sees them.
  virtual void on_checkpoint(const CheckpointMsg& /*msg*/) {}

  // Membership changed (crash, leave, join) — delivered in total order.
  virtual void on_view_change(const gcs::View& old_view, const gcs::View& new_view) = 0;

  // Periodic tick (the checkpointing-frequency knob drives its period).
  virtual void on_timer() {}

 protected:
  Replicator& r_;
};

}  // namespace vdep::replication
