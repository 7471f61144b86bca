#include "replication/replicator.hpp"

#include <algorithm>
#include <utility>

#include "orb/giop.hpp"
#include "replication/active.hpp"
#include "replication/cold_passive.hpp"
#include "replication/hybrid.hpp"
#include "replication/semi_active.hpp"
#include "replication/warm_passive.hpp"
#include "util/assert.hpp"
#include "util/calibration.hpp"
#include "util/logging.hpp"

namespace vdep::replication {

namespace {
constexpr double kSnapshotBytesPerSec = 100e6;  // state (de)serialization CPU rate
constexpr SimTime kColdLaunchDelay = msec(800);  // cold passive: backup start-up time
// How many recent replies travel inside a checkpoint (see
// ReplyCache::serialize_recent).
constexpr std::size_t kCheckpointReplyEntries = 16;
}  // namespace

Replicator::Replicator(net::Network& network, gcs::Daemon& daemon,
                       sim::Process& process, orb::ServerOrb& orb, Checkpointable& app,
                       GroupId group, ReplicatorParams params)
    : network_(network),
      daemon_(daemon),
      process_(process),
      orb_(orb),
      app_(app),
      group_(group),
      params_(params) {}

Replicator::~Replicator() = default;

void Replicator::start(ReplicationStyle style, bool join_existing) {
  VDEP_ASSERT_MSG(endpoint_ == nullptr, "start() called twice");
  join_existing_ = join_existing;
  endpoint_ = std::make_unique<gcs::Endpoint>(daemon_, process_);
  endpoint_->set_message_handler(
      [this](const gcs::GroupMessage& m) { on_group_message(m); });
  // Views go through the same per-message CPU pipeline as data: the group
  // layer delivers them in total order, and charging both through one FIFO
  // queue keeps that order inside the replicator. (A view that overtook a
  // SAFE checkpoint here once caused double-execution on promotion.)
  endpoint_->set_view_handler([this](const gcs::View& v) {
    network_.cpu(process_.host())
        .execute(calib::kReplicatorTraversal, process_.guarded([this, v] { on_view(v); }));
  });

  engine_ = make_engine(style);
  endpoint_->join(group_);
  arm_engine_timer();
}

void Replicator::stop() {
  if (stopped_ || endpoint_ == nullptr) return;
  stopped_ = true;
  engine_timer_.cancel();
  endpoint_->leave(group_);
}

ReplicationStyle Replicator::style() const {
  VDEP_ASSERT(engine_ != nullptr);
  return engine_->style();
}

std::size_t Replicator::my_rank() const {
  if (!view_) return SIZE_MAX;
  return view_->rank_of(process_.id()).value_or(SIZE_MAX);
}

bool Replicator::is_responder() const { return engine_ != nullptr && engine_->responder(); }

double Replicator::observed_request_rate() { return rate_.rate(process_.now()); }

void Replicator::set_checkpoint_interval(SimTime interval) {
  VDEP_ASSERT(interval > kTimeZero);
  params_.checkpoint_interval = interval;
  arm_engine_timer();
}

void Replicator::set_checkpoint_anchor_interval(std::uint32_t interval) {
  VDEP_ASSERT_MSG(interval >= 1, "anchor interval must be >= 1");
  params_.checkpoint_anchor_interval = interval;
}

void Replicator::arm_engine_timer() {
  engine_timer_.cancel();
  engine_timer_ = process_.post(params_.checkpoint_interval, [this] {
    if (engine_ != nullptr && !uninitialized_) engine_->on_timer();
    arm_engine_timer();
  });
}

// --- group message pipeline -----------------------------------------------------

void Replicator::on_group_message(const gcs::GroupMessage& msg) {
  // Interposition cost: one replicator traversal per inbound message.
  network_.cpu(process_.host())
      .execute(calib::kReplicatorTraversal, process_.guarded([this, msg] {
        // Re-establish the message's causal context (captured on the wire)
        // for everything the handlers do synchronously.
        obs::Tracer::Scope scope(process_.kernel().tracer(), msg.trace);
        RepEnvelope env = RepEnvelope::decode(msg.payload);
        switch (env.type) {
          case RepEnvelope::Type::kRequest:
            handle_request_envelope(msg, std::move(env.payload));
            return;
          case RepEnvelope::Type::kCheckpoint:
          case RepEnvelope::Type::kCheckpointDelta: {
            const CheckpointMsg msg = CheckpointMsg::decode(
                env.payload, env.type == RepEnvelope::Type::kCheckpointDelta
                                 ? CheckpointMsg::Kind::kDelta
                                 : CheckpointMsg::Kind::kFull);
            handle_chain({&msg, 1});
            return;
          }
          case RepEnvelope::Type::kSwitch:
            handle_switch(SwitchMsg::decode(env.payload));
            return;
          case RepEnvelope::Type::kStateRequest:
            // The current head of the group donates state via a checkpoint
            // (or an anchor + delta bundle when a chain is retained).
            if (!uninitialized_ && my_rank() == 0) begin_round(/*donation=*/true);
            return;
          case RepEnvelope::Type::kStateTransfer: {
            const StateTransferMsg bundle = StateTransferMsg::decode(env.payload);
            std::vector<CheckpointMsg> chain;
            chain.reserve(1 + bundle.deltas.size());
            chain.push_back(CheckpointMsg::decode(bundle.anchor, CheckpointMsg::Kind::kFull));
            for (const auto& d : bundle.deltas) {
              chain.push_back(CheckpointMsg::decode(d, CheckpointMsg::Kind::kDelta));
            }
            handle_chain(chain);
            return;
          }
          case RepEnvelope::Type::kAnchorRequest:
            // A backup hit a chain gap: the head pins a full anchor. The
            // latch survives an in-flight round (served when it completes).
            if (!uninitialized_ && my_rank() == 0) take_checkpoint(/*force_full=*/true);
            return;
        }
      }));
}

void Replicator::handle_request_envelope(const gcs::GroupMessage& msg, Payload giop) {
  ++request_index_;
  rate_.record(process_.now());

  orb::GiopMessage parsed = orb::decode_giop(giop);
  VDEP_ASSERT_MSG(parsed.request.has_value(), "non-request GIOP in request envelope");
  auto ft = orb::FtRequestContext::from_contexts(parsed.request->service_contexts);
  VDEP_ASSERT_MSG(ft.has_value(), "replicated request without FT_REQUEST context");

  RequestRecord rec;
  rec.index = request_index_;
  rec.rid = RequestId{ft->client, ft->retention_id};
  rec.client_daemon = ft->client_daemon;
  rec.expiration = ft->expiration;
  rec.giop = std::move(giop);
  // The injected GIOP trace context survives the group layer's re-framing;
  // the group message's own context is the fallback.
  rec.trace = orb::trace_from_contexts(parsed.request->service_contexts);
  if (!rec.trace.valid()) rec.trace = msg.trace;

  if (uninitialized_ || holding_) {
    if (rec.trace.valid()) {
      auto span = process_.kernel().tracer().start_span(
          "rep.enqueue", "replication", process_.name(), rec.trace);
      span.note("reason", uninitialized_ ? "state_transfer_pending" : "quiescence_hold");
    }
    if (uninitialized_) {
      log_request(rec);
    } else {
      holdq_.push_back(std::move(rec));
    }
    return;
  }
  engine_->on_request(rec);
}

void Replicator::handle_chain(std::span<const CheckpointMsg> chain) {
  const std::uint64_t tip = chain.back().checkpoint_id;
  if (outstanding_checkpoint_ && *outstanding_checkpoint_ == tip) {
    end_round(tip);
    return;
  }

  if (uninitialized_) {
    // A joiner cannot apply a bare delta (it has no base state); it keeps
    // waiting for the donation, which always starts with a full anchor.
    if (chain.front().kind == CheckpointMsg::Kind::kDelta) return;
    // The state transfer we asked for: install the whole chain in order. The
    // tip covers every request ordered before the donor's cut; the log replay
    // below covers the rest. When a style switch raced with our catch-up,
    // this same chain is also the switch's final checkpoint — complete it,
    // or we would hold requests forever waiting for a second one that never
    // comes.
    for (const CheckpointMsg& part : chain) install_checkpoint(part);
    // A dormant cold joiner also retains the chain, so later deltas have a
    // stored tip to extend instead of forcing an anchor re-request. Only
    // after installing: install_checkpoint() clears the stored chain.
    if (dormant_cold()) stored_chain_.assign(chain.begin(), chain.end());
    uninitialized_ = false;
    // Quiet replay: the live replicas already replied to these requests.
    replay_log(/*send_replies=*/false);
    const std::string parts =
        chain.size() > 1 ? " (chain of " + std::to_string(chain.size()) + ")" : "";
    log_info(process_.now(), "replicator", process_.name() + " state transfer complete" + parts);
    if (switch_awaiting_checkpoint_) complete_switch();
    return;
  }

  if (switch_awaiting_checkpoint_ && chain.front().kind == CheckpointMsg::Kind::kFull) {
    // Fig. 5, case warm-passive -> active: the final checkpoint before the
    // switch. Backups synchronize their state with the primary, then switch.
    // (Switch finals are always full anchors; a delta delivered while
    // awaiting is an earlier in-flight cut and takes the normal engine path
    // below — it must not complete the switch.)
    for (const CheckpointMsg& part : chain) install_checkpoint(part);
    complete_switch();
    return;
  }

  // Initialized bystanders take each part like an ordinary checkpoint: warm
  // backups install (rolling back to an anchor and forward to the tip — same
  // final state), cold backups retain, active styles ignore.
  for (const CheckpointMsg& part : chain) engine_->on_checkpoint(part);
}

void Replicator::handle_switch(const SwitchMsg& msg) {
  VDEP_ASSERT(engine_ != nullptr);
  // Step I: duplicate switch messages are discarded.
  if (switch_target_.has_value() || msg.target == engine_->style()) return;

  switch_target_ = msg.target;
  switch_started_ = process_.now();
  // Parented under the initiator's decision span (the switch multicast
  // carried its context, re-established by on_group_message's scope).
  switch_span_ = process_.kernel().tracer().start_child(
      "rep.switch", "replication", process_.name());
  switch_span_.note("from", to_string(engine_->style()));
  switch_span_.note("to", to_string(msg.target));
  log_info(process_.now(), "replicator",
           process_.name() + " switch " + to_string(engine_->style()) + " -> " +
               to_string(msg.target));

  if (needs_final_checkpoint(engine_->style(), msg.target)) {
    // Step II, case 1 (passive -> active): everyone enqueues application
    // messages; the primary sends one more checkpoint; backups wait for it.
    holding_ = true;
    switch_awaiting_checkpoint_ = true;
    if (engine_->responder()) {
      obs::Tracer::Scope scope(process_.kernel().tracer(), switch_span_.context());
      // Always a full anchor: cold backups about to take executing roles may
      // hold arbitrarily stale retained state a delta could not extend.
      take_checkpoint(/*force_full=*/true);
    }
  } else {
    // Step II, case 2 (active -> passive, or within-family change): the
    // replicas share identical state; the new roles derive deterministically
    // from the current view, so the switch completes at this order point.
    complete_switch();
  }
}

void Replicator::complete_switch() {
  VDEP_ASSERT(switch_target_.has_value());
  const ReplicationStyle from = engine_->style();
  const ReplicationStyle to = *switch_target_;
  // A dormant cold backup retains checkpoints without applying them; before
  // it can execute under any other role, the retained chain must land.
  if (dormant_cold()) install_stored_chain();
  engine_ = make_engine(to);
  switch_target_.reset();
  switch_awaiting_checkpoint_ = false;
  engine_->on_start();
  switch_span_.end();
  switch_history_.push_back(SwitchRecord{switch_started_, process_.now(), from, to});
  log_info(process_.now(), "replicator",
           process_.name() + " now " + to_string(to) +
               (engine_->responder() ? " (responder)" : ""));
  holding_ = false;
  drain_holdq();
}

void Replicator::drain_holdq() {
  auto held = std::move(holdq_);
  holdq_.clear();
  for (auto& rec : held) {
    if (holding_) {
      holdq_.push_back(std::move(rec));  // re-held (nested checkpoint)
    } else {
      engine_->on_request(rec);
    }
  }
}

// --- views -------------------------------------------------------------------------

void Replicator::on_view(const gcs::View& view) {
  const std::optional<gcs::View> old = view_;
  view_ = view;
  // The checkpoint taker we asked for an anchor may be among the departed;
  // allow a fresh request the next time a chain gap shows up.
  anchor_request_outstanding_ = false;

  const bool joined_now =
      view.contains(process_.id()) && (!old || !old->contains(process_.id()));
  if (joined_now) {
    if (view.size() > 1 && join_existing_) {
      uninitialized_ = true;
      request_state_transfer();
    }
    engine_->on_start();
  }

  // Fig. 5, step III case 1: if the primary crashed before its final
  // checkpoint, the backups roll forward from their logs instead.
  if (switch_awaiting_checkpoint_ && old) {
    const bool old_head_gone =
        !old->members.empty() && !view.contains(old->members.front().process);
    if (old_head_gone) {
      log_info(process_.now(), "replicator",
               process_.name() + " switch rollback: primary crashed before checkpoint");
      switch_span_.note("rollback", "primary_crashed_before_checkpoint");
      if (dormant_cold()) install_stored_chain();
      replay_log(true);
      complete_switch();
      return;
    }
  }

  if (old && engine_ != nullptr && !uninitialized_) {
    engine_->on_view_change(*old, view);
  }
}

void Replicator::request_state_transfer() {
  // Roots its own trace: the donor's checkpoint round parents under it via
  // the multicast's context.
  obs::Span span = process_.kernel().tracer().start_span(
      "rep.state_request", "replication", process_.name());
  obs::Tracer::Scope scope(process_.kernel().tracer(), span.context());
  RepEnvelope env{RepEnvelope::Type::kStateRequest, {}};
  endpoint_->multicast(group_, gcs::ServiceType::kAgreed, env.encode());
}

// --- execution ----------------------------------------------------------------------

void Replicator::execute_request(const RequestRecord& rec, bool send_reply) {
  obs::Tracer& tracer = process_.kernel().tracer();
  // FT-CORBA request expiration: the client has given up on this request (it
  // stopped retrying long ago), so executing it would only waste the cycle.
  // Deterministic across replicas: expiration and delivery order are shared.
  if (rec.expiration > kTimeZero && process_.now() > rec.expiration) {
    ++expired_dropped_;
    if (rec.trace.valid()) {
      auto span = tracer.start_span("rep.execute", "replication", process_.name(),
                                    rec.trace);
      span.note("outcome", "expired_drop");
    }
    return;
  }
  // Exactly-once: retention ids are per-client monotone, so anything at or
  // below the applied frontier is a duplicate (client retransmission,
  // group-layer replay, or already covered by an installed checkpoint).
  auto& frontier = applied_rid_[rec.rid.client];
  if (rec.rid.seq <= frontier && !params_.skip_reply_dedup) {
    obs::Span span;
    if (rec.trace.valid()) {
      span = tracer.start_span("rep.execute", "replication", process_.name(),
                               rec.trace);
    }
    if (send_reply) {
      if (auto cached = reply_cache_.get(rec.rid)) {
        span.note("outcome", "dedup_cache_hit");
        send_reply_to_client(rec, *cached);
      } else {
        span.note("outcome", "dedup_cache_miss");
      }
      // Cache miss: the original execution is still in flight (its reply
      // will go out when it completes) or the reply aged out of the cache —
      // the client's next retry reaches a fresher cache.
    } else {
      span.note("outcome", "dedup_suppressed");
    }
    return;
  }
  frontier = std::max(frontier, rec.rid.seq);

  quiescence_.begin_execution();
  ++executed_count_;
  ++executions_since_checkpoint_;

  // Open until the servant's reply comes back through the ORB.
  obs::Span exec_span;
  if (rec.trace.valid()) {
    exec_span = tracer.start_span("rep.execute", "replication", process_.name(),
                                  rec.trace);
    exec_span.note("outcome", "executed");
  }
  obs::Tracer::Scope scope(tracer, exec_span.active() ? exec_span.context()
                                                      : rec.trace);
  std::shared_ptr<obs::Span> open;
  if (exec_span.active()) open = std::make_shared<obs::Span>(std::move(exec_span));
  orb_.handle_request(rec.giop, [this, open, rid = rec.rid,
                                 client_daemon = rec.client_daemon,
                                 trace = rec.trace,
                                 send_reply](Payload reply_giop) {
    if (open) open->end();
    // The cache entry and the reply in flight share one buffer.
    reply_cache_.put(rid, reply_giop);
    if (send_reply) {
      RequestRecord stub;
      stub.rid = rid;
      stub.client_daemon = client_daemon;
      stub.trace = trace;
      send_reply_to_client(stub, reply_giop);
    }
    quiescence_.end_execution();
  });
}

void Replicator::log_request(const RequestRecord& rec) {
  log_.append(LoggedRequest{rec.index, rec.rid, rec.client_daemon, rec.expiration,
                            rec.giop, rec.trace});
}

void Replicator::send_reply_to_client(const RequestRecord& rec, const Payload& reply_giop) {
  // Interposition cost on the way out, then unicast to the client's daemon.
  network_.cpu(process_.host())
      .execute(calib::kReplicatorTraversal,
               process_.guarded([this, rid = rec.rid, daemon = rec.client_daemon,
                                 trace = rec.trace,
                                 reply = augment_reply(reply_giop)]() mutable {
                 obs::Span span;
                 if (trace.valid()) {
                   span = process_.kernel().tracer().start_span(
                       "rep.reply", "replication", process_.name(), trace);
                 }
                 obs::Tracer::Scope scope(process_.kernel().tracer(),
                                          span.active() ? span.context() : trace);
                 endpoint_->unicast(rid.client, daemon, std::move(reply));
               }));
}

Bytes Replicator::augment_reply(const Payload& reply_giop) const {
  orb::GiopMessage parsed = orb::decode_giop(reply_giop);
  VDEP_ASSERT(parsed.reply.has_value());
  orb::CdrWriter w;
  w.ulonglong(view_ ? view_->view_id : 0);
  w.ulong(view_ ? static_cast<std::uint32_t>(view_->size()) : 0);
  w.ulong(static_cast<std::uint32_t>(std::min<std::size_t>(my_rank(), 0xffffffff)));
  parsed.reply->service_contexts.push_back(
      orb::ServiceContext{orb::kFtGroupVersionContextId, std::move(w).take()});
  return parsed.reply->encode();
}

// --- checkpointing --------------------------------------------------------------------

void Replicator::take_checkpoint(bool force_full) {
  if (force_full) anchor_requested_ = true;  // latch survives an open round
  begin_round(/*donation=*/false);
}

void Replicator::begin_round(bool donation) {
  // Either a cut is already multicast (outstanding) or a quiescence waiter is
  // about to cut (pending). A force_full latch still applies to whichever
  // cut fires next.
  if (outstanding_checkpoint_.has_value() || cut_pending_) {
    if (donation) pending_donation_ = true;
    return;
  }
  cut_pending_ = true;
  holding_ = true;
  // Open across quiescence wait + serialization + the SAFE round; ends when
  // our own checkpoint message comes back stable (end_round). Parent is
  // whatever caused the round: timer, switch, a joiner or a backup's anchor
  // request.
  if (!checkpoint_span_.active()) {
    checkpoint_span_ = process_.kernel().tracer().start_child(
        "rep.checkpoint", "replication", process_.name());
  }
  quiescence_.when_quiescent(
      process_.guarded([this, donation] { cut_and_multicast(donation); }));
}

void Replicator::end_round(std::uint64_t checkpoint_id) {
  // Every member daemon holds our checkpoint: quiescence ends here (the
  // paper's checkpoint blackout).
  outstanding_checkpoint_.reset();
  checkpoint_span_.note("checkpoint_id", std::to_string(checkpoint_id));
  checkpoint_span_.end();
  if (switch_awaiting_checkpoint_) {
    complete_switch();
  } else {
    holding_ = false;
    drain_holdq();
  }
  if (stopped_ || uninitialized_ || engine_ == nullptr) return;
  if (pending_donation_) {
    pending_donation_ = false;
    if (my_rank() == 0) {
      begin_round(/*donation=*/true);
      return;
    }
  }
  if (anchor_requested_ && my_rank() == 0 && !switch_target_.has_value()) {
    take_checkpoint(/*force_full=*/true);
  }
}

void Replicator::checkpoint_if_due() {
  const auto every = params_.checkpoint_every_requests;
  if (every > 0 && view_ && view_->size() > 1 && executions_since_checkpoint_ >= every) {
    take_checkpoint();
  }
}

void Replicator::checkpoint_tick(std::size_t first_stale_rank) {
  if (view_ && view_->size() > first_stale_rank) {
    take_checkpoint();
  } else {
    // Nobody to keep current: snapshot locally so a restart has a recovery
    // point. Costs quiescence + serialization, no traffic.
    take_local_checkpoint();
  }
}

bool Replicator::can_cut_delta() const {
  return !anchor_requested_ && params_.checkpoint_anchor_interval > 1 &&
         app_.supports_delta() && last_cut_id_.has_value() &&
         deltas_since_anchor_ + 1 < params_.checkpoint_anchor_interval;
}

CheckpointMsg Replicator::new_cut() {
  ++checkpoint_counter_;
  executions_since_checkpoint_ = 0;
  CheckpointMsg msg;
  msg.checkpoint_id = (process_.id().value() << 20) | checkpoint_counter_;
  msg.applied = applied_rid_;
  msg.reply_cache = reply_cache_.serialize_recent(kCheckpointReplyEntries);
  if (on_checkpoint_) on_checkpoint_(msg.checkpoint_id);
  return msg;
}

void Replicator::cut_and_multicast(bool donation) {
  cut_pending_ = false;
  CheckpointMsg msg = new_cut();
  const std::uint64_t id = msg.checkpoint_id;

  // Cut a dirty-set delta when the cadence knob allows it and the app can
  // still answer for the previous cut (a restore in between makes it full).
  std::optional<std::size_t> delta_bytes;
  if (can_cut_delta()) {
    if (auto delta = app_.snapshot_delta(last_cut_app_epoch_)) {
      msg.kind = CheckpointMsg::Kind::kDelta;
      msg.base_epoch = *last_cut_id_;
      msg.delta_epoch = id;
      msg.app_state = std::move(*delta);
      delta_bytes = msg.app_state.size();
    }
  }
  const bool is_delta = msg.kind == CheckpointMsg::Kind::kDelta;
  if (!is_delta) msg.app_state = app_.snapshot();
  last_cut_app_epoch_ = app_.cut_epoch();
  last_cut_id_ = id;
  installed_epoch_ = id;

  // Encode once; the chain retains the same buffers a later state-transfer
  // bundle ships (zero-copy fan-out).
  Payload enc = msg.encode();
  if (is_delta) {
    chain_deltas_.push_back(enc);
    ++deltas_since_anchor_;
    ++checkpoints_delta_;
  } else {
    chain_anchor_ = enc;
    chain_deltas_.clear();
    deltas_since_anchor_ = 0;
    anchor_requested_ = false;
    ++checkpoints_full_;
  }
  checkpoint_bytes_ += enc.size();

  outstanding_checkpoint_ = id;
  checkpoint_span_.note("kind", is_delta ? "delta" : "full");
  checkpoint_span_.note("state_bytes", std::to_string(msg.app_state.size()));
  if (is_delta) checkpoint_span_.note("base_epoch", std::to_string(msg.base_epoch));
  if (donation) checkpoint_span_.note("donation", "1");

  // Serialization occupies the CPU; the multicast submission queues behind
  // it on the same host CPU, so the cost delays the checkpoint naturally. A
  // delta only pays for the dirty set, not the whole state — the point of
  // incremental checkpointing (the blackout shrinks with the dirty fraction).
  network_.cpu(process_.host())
      .execute(checkpoint_cpu_time(app_.state_size(), delta_bytes,
                                   kSnapshotBytesPerSec),
               [] {});
  obs::Tracer::Scope scope(process_.kernel().tracer(), checkpoint_span_.context());
  if (donation && is_delta) {
    // A joiner cannot use a bare delta: ship the retained anchor plus the
    // whole delta suffix (ending in the cut just taken). Initialized members
    // consume only the parts that continue their own chains.
    StateTransferMsg bundle;
    bundle.anchor = chain_anchor_;
    bundle.deltas = chain_deltas_;
    RepEnvelope env{RepEnvelope::Type::kStateTransfer, bundle.encode()};
    endpoint_->multicast(group_, gcs::ServiceType::kSafe, env.encode());
  } else {
    RepEnvelope env{is_delta ? RepEnvelope::Type::kCheckpointDelta
                             : RepEnvelope::Type::kCheckpoint,
                    std::move(enc)};
    endpoint_->multicast(group_, gcs::ServiceType::kSafe, env.encode());
  }
}

void Replicator::request_anchor() {
  if (anchor_request_outstanding_) return;  // one in flight is enough
  anchor_request_outstanding_ = true;
  ++anchor_requests_;
  log_info(process_.now(), "replicator",
           process_.name() + " checkpoint chain gap: requesting full anchor");
  if (process_.kernel().tracer().enabled()) {
    auto span = process_.kernel().tracer().start_child("rep.anchor_request",
                                                       "replication", process_.name());
    span.note("installed_epoch",
              installed_epoch_ ? std::to_string(*installed_epoch_) : "none");
  }
  RepEnvelope env{RepEnvelope::Type::kAnchorRequest, {}};
  endpoint_->multicast(group_, gcs::ServiceType::kAgreed, env.encode());
}

void Replicator::take_local_checkpoint() {
  if (outstanding_checkpoint_.has_value() || holding_) return;
  holding_ = true;
  quiescence_.when_quiescent(process_.guarded([this] {
    obs::Span span = process_.kernel().tracer().start_child(
        "rep.checkpoint", "replication", process_.name());
    span.note("local", "1");
    CheckpointMsg msg = new_cut();
    msg.app_state = app_.snapshot();
    stored_chain_.clear();
    stored_chain_.push_back(std::move(msg));
    network_.cpu(process_.host())
        .execute(snapshot_cpu_time(app_.state_size(), kSnapshotBytesPerSec),
                 process_.guarded([this] {
                   holding_ = false;
                   drain_holdq();
                 }));
  }));
}

void Replicator::install_checkpoint(const CheckpointMsg& msg) {
  // Installing over in-flight executions would let queued work re-apply
  // requests the snapshot already contains; the delivery pipeline guarantees
  // installs only happen on quiescent (non-executing) replicas.
  VDEP_ASSERT_MSG(quiescence_.quiescent(), "checkpoint install while executing");
  const bool is_delta = msg.kind == CheckpointMsg::Kind::kDelta;
  if (is_delta) {
    // Checkpoint ids are (pid << 20 | counter): monotone per incarnation but
    // NOT numerically ordered across takers, so chain checks are equality
    // only. A delta we already hold is a duplicate; one whose base is not
    // exactly our position is a gap — skip it and ask for a full anchor
    // (installing it anyway would corrupt the state undetectably).
    if (installed_epoch_ && *installed_epoch_ == msg.delta_epoch) return;
    if (!installed_epoch_ || *installed_epoch_ != msg.base_epoch) {
      request_anchor();
      return;
    }
  }
  if (process_.kernel().tracer().enabled()) {
    auto span = process_.kernel().tracer().start_child("rep.install", "replication",
                                                       process_.name());
    span.note("kind", is_delta ? "delta" : "full");
    span.note("checkpoint_id", std::to_string(msg.checkpoint_id));
    span.note("state_bytes", std::to_string(msg.app_state.size()));
  }
  if (is_delta) {
    app_.apply_delta(msg.app_state);
    ++installs_delta_;
  } else {
    app_.restore(msg.app_state);
    ++installs_full_;
    anchor_request_outstanding_ = false;  // the anchor we asked for arrived
  }
  reply_cache_.restore(msg.reply_cache);
  // The state now *is* the snapshot (or the snapshot plus this delta); the
  // applied frontier must match it, and any chain retained for a cold launch
  // is superseded.
  applied_rid_ = msg.applied;
  log_.truncate_applied(msg.applied);
  installed_epoch_ = msg.checkpoint_id;
  const std::size_t state_size = msg.app_state.size();
  stored_chain_.clear();
  // Our own cut lineage (as a past or future checkpoint taker) is superseded
  // by the installed state: the next cut we take must be a full anchor.
  last_cut_id_.reset();
  chain_anchor_ = Payload();
  chain_deltas_.clear();
  deltas_since_anchor_ = 0;
  // Deserialization cost: occupy the CPU (delays whatever comes next). A
  // delta costs its own (dirty-set) bytes, not the full state.
  network_.cpu(process_.host())
      .execute(snapshot_cpu_time(state_size, kSnapshotBytesPerSec), [] {});
}

void Replicator::store_checkpoint(const CheckpointMsg& msg) {
  if (msg.kind == CheckpointMsg::Kind::kFull) {
    stored_chain_.assign(1, msg);
    anchor_request_outstanding_ = false;
  } else {
    // Retain a delta only if it extends the stored chain tip; otherwise this
    // replica's retained state can no longer reach the group's frontier and
    // it must re-anchor. The log is deliberately NOT truncated on a rejected
    // delta — truncating against a checkpoint we do not hold would lose the
    // only copy of those requests.
    if (stored_chain_.empty()) {
      request_anchor();
      return;
    }
    const std::uint64_t tip = stored_chain_.back().checkpoint_id;
    if (msg.delta_epoch == tip) return;  // duplicate (e.g. re-sent in a bundle)
    if (msg.base_epoch != tip) {
      request_anchor();
      return;
    }
    stored_chain_.push_back(msg);
  }
  log_.truncate_applied(msg.applied);
}

void Replicator::install_stored_chain() {
  // Move the chain out first: install_checkpoint() clears the stored chain.
  const std::vector<CheckpointMsg> chain = std::exchange(stored_chain_, {});
  // Each retained delta was chain-checked on store, so the whole suffix
  // installs without gaps.
  for (const CheckpointMsg& part : chain) install_checkpoint(part);
}

void Replicator::replay_log(bool send_replies) {
  for (auto& e : log_.take_all()) {
    RequestRecord rec;
    rec.index = e.index;
    rec.rid = e.request_id;
    rec.client_daemon = e.client_daemon;
    rec.expiration = e.expiration;
    rec.giop = std::move(e.giop);  // take_all() yields owned entries
    rec.trace = e.trace;
    execute_request(rec, send_replies);
  }
}

void Replicator::trace_promotion(ReplicationStyle style) {
  if (!process_.kernel().tracer().enabled()) return;
  auto span =
      process_.kernel().tracer().start_span("rep.promote", "replication", process_.name());
  span.note("style", to_string(style));
  span.note("replayed", std::to_string(log_.size()));
}

void Replicator::promote_warm() {
  trace_promotion(ReplicationStyle::kWarmPassive);
  log_info(process_.now(), "replicator",
           process_.name() + " promoted to primary (warm), replaying " +
               std::to_string(log_.size()) + " requests");
  replay_log(true);
}

bool Replicator::dormant_cold() const {
  return engine_ != nullptr && engine_->style() == ReplicationStyle::kColdPassive &&
         !engine_->responder();
}

void Replicator::promote_cold() {
  if (cold_launch_pending_) return;
  cold_launch_pending_ = true;
  log_info(process_.now(), "replicator", process_.name() + " launching cold backup");
  process_.post(kColdLaunchDelay, [this] {
    trace_promotion(ReplicationStyle::kColdPassive);
    install_stored_chain();
    cold_launch_pending_ = false;
    replay_log(true);
    log_info(process_.now(), "replicator", process_.name() + " cold backup live");
  });
}

std::unique_ptr<ReplicationEngine> Replicator::make_engine(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kActive: return std::make_unique<ActiveEngine>(*this);
    case ReplicationStyle::kWarmPassive: return std::make_unique<WarmPassiveEngine>(*this);
    case ReplicationStyle::kColdPassive: return std::make_unique<ColdPassiveEngine>(*this);
    case ReplicationStyle::kSemiActive: return std::make_unique<SemiActiveEngine>(*this);
    case ReplicationStyle::kHybrid: return std::make_unique<HybridEngine>(*this);
  }
  VDEP_ASSERT_MSG(false, "unknown replication style");
  return nullptr;
}

void Replicator::request_style_switch(ReplicationStyle target) {
  // Fig. 5, step I: one or more replicas send a "switch" message to the
  // whole group; duplicates are discarded at delivery.
  if (!process_.alive() || stopped_) return;
  if (engine_ != nullptr && target == engine_->style()) return;
  SwitchMsg msg;
  msg.target = target;
  msg.initiator = process_.id();
  RepEnvelope env{RepEnvelope::Type::kSwitch, msg.encode()};
  endpoint_->multicast(group_, gcs::ServiceType::kAgreed, env.encode());
}

bool Replicator::needs_final_checkpoint(ReplicationStyle from, ReplicationStyle to) {
  // A final checkpoint is needed exactly when some replica holds stale state
  // under `from` but takes an executing role under `to`. Which ranks are
  // stale: warm/cold passive — every backup (rank >= 1); hybrid — the
  // observers (rank >= core); active/semi-active — nobody. Ranks do not
  // change at the switch point, so it suffices that `to`'s stale set does
  // not cover `from`'s.
  const auto first_stale_rank = [](ReplicationStyle s) -> std::size_t {
    switch (s) {
      case ReplicationStyle::kWarmPassive:
      case ReplicationStyle::kColdPassive:
        return 1;
      case ReplicationStyle::kHybrid:
        return HybridEngine::kActiveCore;
      case ReplicationStyle::kActive:
      case ReplicationStyle::kSemiActive:
        return SIZE_MAX;
    }
    return SIZE_MAX;
  };
  return first_stale_rank(from) < first_stale_rank(to);
}

}  // namespace vdep::replication
