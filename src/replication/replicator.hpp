// The replicator: MEAD's per-process fault-tolerance module (paper Fig. 2).
//
// Three layers in one object:
//   top    — interface to the application/ORB: feeds intercepted GIOP
//            requests into the server ORB and collects replies, charging the
//            calibrated interposition cost per traversal;
//   middle — tunable replication mechanisms: the active / warm-passive /
//            cold-passive / semi-active engines, reply cache, message log,
//            checkpointing with quiescence, recovery/state transfer, and the
//            runtime style-switch protocol of Fig. 5;
//   bottom — interface to group communication: one gcs::Endpoint, AGREED
//            multicast for requests/switches, SAFE for checkpoints, private
//            unicast for replies.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gcs/endpoint.hpp"
#include "orb/orb_core.hpp"
#include "replication/app_state.hpp"
#include "replication/checkpoint.hpp"
#include "replication/engine.hpp"
#include "replication/message_log.hpp"
#include "replication/reply_cache.hpp"
#include "util/stats.hpp"

namespace vdep::replication {

class Replicator {
 public:
  Replicator(net::Network& network, gcs::Daemon& daemon, sim::Process& process,
             orb::ServerOrb& orb, Checkpointable& app, GroupId group,
             ReplicatorParams params = {});
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  // Joins the group and activates the style. Call once per incarnation. Pass
  // join_existing = true when this replica is added to an already-running
  // group (NumReplicas knob, recovery): it will request a state transfer and
  // log requests until the checkpoint arrives.
  void start(ReplicationStyle style, bool join_existing = false);

  // Graceful retirement: leaves the group (NumReplicas knob shrink). The
  // surviving members see an ordinary membership change.
  void stop();
  [[nodiscard]] bool stopped() const { return stopped_; }

  // --- low-level knobs (FT-CORBA property names in comments) -----------------
  // CheckpointInterval: how often a passive primary checkpoints.
  void set_checkpoint_interval(SimTime interval);
  [[nodiscard]] SimTime checkpoint_interval() const { return params_.checkpoint_interval; }
  // CheckpointAnchorInterval: every K-th group checkpoint is a full anchor;
  // the rest are dirty-set deltas (1 = all full, the pre-delta protocol).
  void set_checkpoint_anchor_interval(std::uint32_t interval);
  [[nodiscard]] std::uint32_t checkpoint_anchor_interval() const {
    return params_.checkpoint_anchor_interval;
  }
  // ReplicationStyle, changed at runtime via the Fig. 5 protocol.
  void request_style_switch(ReplicationStyle target);
  [[nodiscard]] ReplicationStyle style() const;
  [[nodiscard]] bool switch_in_progress() const { return switch_target_.has_value(); }

  // --- introspection / monitoring ---------------------------------------------
  [[nodiscard]] const std::optional<gcs::View>& current_view() const { return view_; }
  // Rank in the current view; SIZE_MAX when not (yet) a member.
  [[nodiscard]] std::size_t my_rank() const;
  [[nodiscard]] bool is_responder() const;
  // False while a joiner is still waiting for its state transfer.
  [[nodiscard]] bool initialized() const { return !uninitialized_; }
  [[nodiscard]] std::uint64_t requests_executed() const { return executed_count_; }
  [[nodiscard]] std::uint64_t checkpoints_taken() const { return checkpoint_counter_; }
  // Incremental-checkpoint telemetry: cuts by kind, encoded bytes multicast,
  // installs by kind, and anchor re-requests after chain gaps. The bench
  // (bench/micro_checkpoint.cpp) and the knob layer's profiling read these.
  [[nodiscard]] std::uint64_t checkpoints_full_taken() const { return checkpoints_full_; }
  [[nodiscard]] std::uint64_t checkpoints_delta_taken() const { return checkpoints_delta_; }
  [[nodiscard]] std::uint64_t checkpoint_bytes_sent() const { return checkpoint_bytes_; }
  [[nodiscard]] std::uint64_t installs_full() const { return installs_full_; }
  [[nodiscard]] std::uint64_t installs_delta() const { return installs_delta_; }
  [[nodiscard]] std::uint64_t anchor_requests_sent() const { return anchor_requests_; }
  // Exposed for retention tests/monitoring (reply GC under delta installs).
  [[nodiscard]] const ReplyCache& reply_cache() const { return reply_cache_; }
  // Requests discarded because their FT_REQUEST expiration had passed.
  [[nodiscard]] std::uint64_t expired_requests_dropped() const {
    return expired_dropped_;
  }
  // Request arrival rate observed at this replica (events/s), the signal the
  // Fig. 6 adaptation policy thresholds on.
  [[nodiscard]] double observed_request_rate();
  [[nodiscard]] Checkpointable& app() { return app_; }
  [[nodiscard]] sim::Process& process() { return process_; }
  [[nodiscard]] gcs::Endpoint& endpoint() { return *endpoint_; }
  [[nodiscard]] GroupId group() const { return group_; }

  struct SwitchRecord {
    SimTime initiated;
    SimTime completed;
    ReplicationStyle from;
    ReplicationStyle to;
  };
  [[nodiscard]] const std::vector<SwitchRecord>& switch_history() const {
    return switch_history_;
  }
  // Fires whenever this replica snapshots its state (group or local
  // checkpoint) with the fresh checkpoint id — the chaos engine's
  // checkpoint-monotonicity oracle listens here.
  void set_on_checkpoint(std::function<void(std::uint64_t)> fn) {
    on_checkpoint_ = std::move(fn);
  }

  // --- facilities used by the engines -------------------------------------------
  // Executes a request through the ORB (dedup via reply cache); replies to
  // the client iff `send_reply`.
  void execute_request(const RequestRecord& rec, bool send_reply);
  // Appends to the backup log.
  void log_request(const RequestRecord& rec);
  // Quiesce, snapshot, SAFE-multicast; resumes held requests when the
  // checkpoint comes back (i.e. is stable at every member daemon). Cuts a
  // dirty-set delta when the anchor-interval knob and the app allow it;
  // force_full pins an anchor (switch finals, gap recovery).
  void take_checkpoint(bool force_full = false);
  // Quiesce and snapshot locally without multicasting — what a lone passive
  // primary does so a cold restart still has a recovery point.
  void take_local_checkpoint();
  // Passive primary, after each execution: checkpoint every N requests, so
  // backup staleness is bounded in requests, not just in wall-clock time.
  void checkpoint_if_due();
  // Timer tick of the checkpoint taker: a group round when some member ranks
  // at `first_stale_rank` or beyond, else a local checkpoint.
  void checkpoint_tick(std::size_t first_stale_rank);
  // Warm install: restore app + reply cache (full), or apply the dirty set
  // onto the matching base (delta), truncate log. A delta that does not
  // continue this replica's chain is dropped and a full anchor re-requested.
  void install_checkpoint(const CheckpointMsg& msg);
  // Cold path: retain without applying — a full anchor plus the delta suffix
  // chained onto it.
  void store_checkpoint(const CheckpointMsg& msg);
  // Replays every logged request not yet reflected in this replica's state
  // (promotion / rollback / joiner catch-up); duplicate suppression comes
  // from the per-client applied-retention-id map.
  void replay_log(bool send_replies);
  // Promotion entry points.
  void promote_warm();   // replay with replies, assume primary duties
  void promote_cold();   // launch delay, apply stored checkpoint, then warm path
  [[nodiscard]] const MessageLog& message_log() const { return log_; }
  // Cold passive: true while a promoted dormant backup is still launching.
  [[nodiscard]] bool cold_launch_pending() const { return cold_launch_pending_; }

 private:
  void on_group_message(const gcs::GroupMessage& msg);
  void on_view(const gcs::View& view);
  void handle_request_envelope(const gcs::GroupMessage& msg, Payload giop);
  // Every checkpoint delivery is a chain: one full anchor, one delta, or a
  // state-transfer bundle's anchor followed by its delta suffix.
  void handle_chain(std::span<const CheckpointMsg> chain);
  void handle_switch(const SwitchMsg& msg);
  // Starts a round unless one is open. A donation serves a joiner: it
  // bundles the retained anchor + delta suffix (+ a fresh delta covering the
  // order point), or falls back to a full checkpoint.
  void begin_round(bool donation);
  // Our own round came back stable: serve a deferred donation / anchor request.
  void end_round(std::uint64_t checkpoint_id);
  // Quiescent-context body of a round: cut full or delta, update the chain,
  // charge CPU, multicast.
  void cut_and_multicast(bool donation);
  [[nodiscard]] bool can_cut_delta() const;
  // Id, applied frontier and recent replies of a new cut; the caller adds the
  // app state.
  [[nodiscard]] CheckpointMsg new_cut();
  // Backup side: a delta did not continue our chain — ask the taker for a
  // full anchor (deduplicated until one arrives).
  void request_anchor();
  [[nodiscard]] bool dormant_cold() const;  // cold passive and not (yet) serving
  // Install the retained cold chain: anchor, then the delta suffix.
  void install_stored_chain();
  void trace_promotion(ReplicationStyle style);
  void complete_switch();
  void drain_holdq();
  void send_reply_to_client(const RequestRecord& rec, const Payload& reply_giop);
  [[nodiscard]] Bytes augment_reply(const Payload& reply_giop) const;
  void arm_engine_timer();
  [[nodiscard]] std::unique_ptr<ReplicationEngine> make_engine(ReplicationStyle style);
  [[nodiscard]] static bool needs_final_checkpoint(ReplicationStyle from,
                                                   ReplicationStyle to);
  void request_state_transfer();

  net::Network& network_;
  gcs::Daemon& daemon_;
  sim::Process& process_;
  orb::ServerOrb& orb_;
  Checkpointable& app_;
  GroupId group_;
  ReplicatorParams params_;

  std::unique_ptr<gcs::Endpoint> endpoint_;
  std::unique_ptr<ReplicationEngine> engine_;

  std::optional<gcs::View> view_;
  std::uint64_t request_index_ = 0;   // local delivery index of kRequest envelopes
  std::map<ProcessId, std::uint64_t> applied_rid_;  // exactly-once frontier
  std::uint64_t executed_count_ = 0;  // actual executions (dedups excluded)
  std::uint64_t expired_dropped_ = 0;
  ReplyCache reply_cache_;
  MessageLog log_;
  QuiescenceTracker quiescence_;
  SlidingRate rate_{msec(500)};

  // Checkpointing state.
  std::uint64_t checkpoint_counter_ = 0;
  std::uint64_t executions_since_checkpoint_ = 0;
  std::optional<std::uint64_t> outstanding_checkpoint_;  // id we multicast
  bool cut_pending_ = false;  // quiescence waiter registered, cut not yet taken
  // Cold passive: the retained anchor and its delta suffix; back() is the tip.
  std::vector<CheckpointMsg> stored_chain_;

  // Incremental checkpoint chain — taker side. The encoded anchor and delta
  // suffix are retained (encode-once) so state transfer can ship
  // `anchor + deltas` instead of a monolithic snapshot.
  std::optional<std::uint64_t> last_cut_id_;  // our last group checkpoint
  std::uint64_t last_cut_app_epoch_ = 0;      // app epoch of that cut
  std::uint64_t deltas_since_anchor_ = 0;
  bool anchor_requested_ = false;   // next cut must be a full anchor
  bool pending_donation_ = false;   // state request arrived mid-round
  Payload chain_anchor_;            // encoded full CheckpointMsg
  std::vector<Payload> chain_deltas_;

  // Installer side: chain position of this replica's state.
  std::optional<std::uint64_t> installed_epoch_;
  bool anchor_request_outstanding_ = false;

  // Telemetry (see the introspection accessors).
  std::uint64_t checkpoints_full_ = 0;
  std::uint64_t checkpoints_delta_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;
  std::uint64_t installs_full_ = 0;
  std::uint64_t installs_delta_ = 0;
  std::uint64_t anchor_requests_ = 0;
  bool holding_ = false;  // requests parked in holdq_ (quiescence / switch)
  std::vector<RequestRecord> holdq_;
  bool uninitialized_ = false;  // joiner awaiting state transfer
  bool join_existing_ = false;
  bool cold_launch_pending_ = false;
  bool stopped_ = false;
  sim::EventHandle engine_timer_;

  // Long-running protocol spans: opened when the round starts, closed when
  // the SAFE round / switch completes (possibly many deliveries later).
  obs::Span checkpoint_span_;
  obs::Span switch_span_;

  // Switch protocol state (Fig. 5).
  std::optional<ReplicationStyle> switch_target_;
  bool switch_awaiting_checkpoint_ = false;
  SimTime switch_started_ = kTimeZero;
  std::vector<SwitchRecord> switch_history_;
  std::function<void(std::uint64_t)> on_checkpoint_;
};

}  // namespace vdep::replication
