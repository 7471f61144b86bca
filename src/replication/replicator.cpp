#include "replication/replicator.hpp"

#include <algorithm>
#include <utility>

#include "orb/giop.hpp"
#include "util/assert.hpp"
#include "util/calibration.hpp"

namespace vdep::replication {

namespace {
constexpr double kSnapshotBytesPerSec = 100e6;  // state (de)serialization CPU rate
constexpr SimTime kColdLaunchDelay = msec(800);  // cold passive: backup start-up time
// How many recent replies travel inside a checkpoint (see
// ReplyCache::serialize_recent).
constexpr std::size_t kCheckpointReplyEntries = 16;

// Hybrid replication (the paper's Sec. 6 direction, after Bakken et al.):
// the first kHybridCore replicas by view rank form an active core that
// executes and replies; the rest are warm observers that log requests and
// install the head's checkpoints, every kHybridObserverSyncEvery-th
// checkpoint-interval tick.
constexpr std::size_t kHybridCore = 2;
constexpr std::uint64_t kHybridObserverSyncEvery = 4;

// The first view rank whose state a style lets go stale between checkpoints:
// every backup under warm/cold passive, the observers under hybrid, nobody
// under active/semi-active (SIZE_MAX).
std::size_t first_stale_rank(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kWarmPassive:
    case ReplicationStyle::kColdPassive:
      return 1;
    case ReplicationStyle::kHybrid:
      return kHybridCore;
    case ReplicationStyle::kActive:
    case ReplicationStyle::kSemiActive:
      return SIZE_MAX;
  }
  return SIZE_MAX;
}

// A final checkpoint is needed exactly when some replica holds stale state
// under `from` but takes an executing role under `to`. Ranks do not change
// at the switch point, so it suffices that `to`'s stale set does not cover
// `from`'s.
bool needs_final_checkpoint(ReplicationStyle from, ReplicationStyle to) {
  return first_stale_rank(from) < first_stale_rank(to);
}
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
        .execute(calib::kReplicatorTraversal,
                 process_.guarded([this, view = v] { on_view(view); }));
  });

  style_ = style;
  endpoint_->join(group_);
  arm_timer();
}

void Replicator::stop() {
  if (stopped_ || endpoint_ == nullptr) return;
  stopped_ = true;
  timer_.cancel();
  endpoint_->leave(group_);
}

ReplicationStyle Replicator::style() const {
  VDEP_ASSERT(endpoint_ != nullptr);
  return style_;
}

std::size_t Replicator::my_rank() const {
  if (!view_) return SIZE_MAX;
  return view_->rank_of(process_.id()).value_or(SIZE_MAX);
}

bool Replicator::is_responder() const {
  if (endpoint_ == nullptr) return false;
  switch (style_) {
    case ReplicationStyle::kActive:
      return true;
    case ReplicationStyle::kSemiActive:
      return my_rank() == 0;  // followers execute but stay silent
    case ReplicationStyle::kColdPassive:
      if (cold_launch_pending_) return false;
      [[fallthrough]];
    case ReplicationStyle::kWarmPassive:
    case ReplicationStyle::kHybrid:
      // The passive primary, or the hybrid core: the ranks kept current.
      return my_rank() < first_stale_rank(style_);
  }
  return false;
}

AppliedFrontier Replicator::applied_frontier() const {
  AppliedFrontier out;
  out.reserve(applied_rid_.size());
  for (const auto& [client, frontier] : applied_rid_) out.emplace_back(client, frontier.seq);
  return out;
}

double Replicator::observed_request_rate() { return rate_.rate(process_.now()); }

void Replicator::set_checkpoint_interval(SimTime interval) {
  VDEP_ASSERT(interval > kTimeZero);
  params_.checkpoint_interval = interval;
  arm_timer();
}

void Replicator::set_checkpoint_anchor_interval(std::uint32_t interval) {
  VDEP_ASSERT_MSG(interval >= 1, "anchor interval must be >= 1");
  params_.checkpoint_anchor_interval = interval;
}

void Replicator::arm_timer() {
  timer_.cancel();
  timer_ = process_.post(params_.checkpoint_interval, [this] {
    if (endpoint_ != nullptr && !uninitialized_) on_timer();
    arm_timer();
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
          case RepEnvelope::Type::kCheckpointDelta:
          case RepEnvelope::Type::kStateTransfer:
            // A malformed part installs nothing (install_checkpoint decodes
            // before it applies), so dropping the delivery keeps the state
            // this replica had. A later delta then meets the chain-gap rule
            // and asks for an anchor; the log still holds every request the
            // dropped part covered.
            try {
              handle_checkpoint_envelope(env);
            } catch (const DecodeError&) {
            }
            return;
          case RepEnvelope::Type::kSwitch:
            handle_switch(SwitchMsg::decode(env.payload));
            return;
          case RepEnvelope::Type::kStateRequest:
            // The current head of the group donates state via a checkpoint
            // (or an anchor + delta bundle when a chain is retained).
            if (!uninitialized_ && my_rank() == 0) begin_round(/*donation=*/true);
            return;
          case RepEnvelope::Type::kAnchorRequest:
            // A backup hit a chain gap: the head pins a full anchor. The
            // latch survives an in-flight round (served when it completes).
            if (!uninitialized_ && my_rank() == 0) take_checkpoint(/*force_full=*/true);
            return;
        }
      }));
}

void Replicator::handle_checkpoint_envelope(const RepEnvelope& env) {
  if (env.type != RepEnvelope::Type::kStateTransfer) {
    const CheckpointMsg msg = CheckpointMsg::decode(
        env.payload, env.type == RepEnvelope::Type::kCheckpointDelta
                         ? CheckpointMsg::Kind::kDelta
                         : CheckpointMsg::Kind::kFull);
    handle_chain({&msg, 1});
    return;
  }
  const StateTransferMsg bundle = StateTransferMsg::decode(env.payload);
  std::vector<CheckpointMsg> chain;
  chain.reserve(1 + bundle.deltas.size());
  chain.push_back(CheckpointMsg::decode(bundle.anchor, CheckpointMsg::Kind::kFull));
  for (const auto& d : bundle.deltas) {
    chain.push_back(CheckpointMsg::decode(d, CheckpointMsg::Kind::kDelta));
  }
  handle_chain(chain);
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
  rec.request_id = RequestId{ft->client, ft->retention_id};
  rec.client_daemon = ft->client_daemon;
  rec.expiration = ft->expiration;
  rec.giop = std::move(giop);
  // The injected GIOP trace context survives the group layer's re-framing;
  // the group message's own context is the fallback.
  rec.trace = orb::from_contexts<obs::TraceContext>(parsed.request->service_contexts,
                                                    orb::kTraceContextId)
                  .value_or(obs::TraceContext{});
  if (!rec.trace.valid()) rec.trace = msg.trace;

  if (uninitialized_ || holding_) {
    if (rec.trace.valid()) {
      auto span = process_.kernel().tracer().start_span(
          "rep.enqueue", "replication", process_.name(), rec.trace);
      span.note("reason", uninitialized_ ? "state_transfer_pending" : "quiescence_hold");
    }
    if (uninitialized_) {
      log_.append(std::move(rec));
    } else {
      holdq_.push_back(std::move(rec));
    }
    return;
  }
  on_request(rec);
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
    if (switch_awaiting_checkpoint_) complete_switch();
    return;
  }

  if (switch_awaiting_checkpoint_ && chain.front().kind == CheckpointMsg::Kind::kFull) {
    // Fig. 5, case warm-passive -> active: the final checkpoint before the
    // switch. Backups synchronize their state with the primary, then switch.
    // (Switch finals are always full anchors; a delta delivered while
    // awaiting is an earlier in-flight cut and takes the normal per-style path
    // below — it must not complete the switch.)
    for (const CheckpointMsg& part : chain) install_checkpoint(part);
    complete_switch();
    return;
  }

  // Initialized bystanders take each part like an ordinary checkpoint: warm
  // backups install (rolling back to an anchor and forward to the tip — same
  // final state), cold backups retain, active styles ignore.
  for (const CheckpointMsg& part : chain) on_checkpoint(part);
}

void Replicator::handle_switch(const SwitchMsg& msg) {
  // Step I: duplicate switch messages are discarded.
  if (switch_target_.has_value() || msg.target == style_) return;

  switch_target_ = msg.target;
  switch_started_ = process_.now();
  // Parented under the initiator's decision span (the switch multicast
  // carried its context, re-established by on_group_message's scope).
  switch_span_ = process_.kernel().tracer().start_child(
      "rep.switch", "replication", process_.name());
  switch_span_.note("from", to_string(style_));
  switch_span_.note("to", to_string(msg.target));

  if (needs_final_checkpoint(style_, msg.target)) {
    // Step II, case 1 (passive -> active): everyone enqueues application
    // messages; the primary sends one more checkpoint; backups wait for it.
    holding_ = true;
    switch_awaiting_checkpoint_ = true;
    if (is_responder()) {
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
  const ReplicationStyle from = style_;
  const ReplicationStyle to = *switch_target_;
  // A dormant cold backup retains checkpoints without applying them; before
  // it can execute under any other role, the retained chain must land.
  if (dormant_cold()) install_stored_chain();
  style_ = to;
  hybrid_ticks_ = 0;
  switch_target_.reset();
  switch_awaiting_checkpoint_ = false;
  switch_span_.end();
  switch_history_.push_back(SwitchRecord{switch_started_, process_.now(), from, to});
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
      on_request(rec);
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
  if (joined_now && view.size() > 1 && join_existing_) {
    uninitialized_ = true;
    request_state_transfer();
  }

  // Fig. 5, step III case 1: if the primary crashed before its final
  // checkpoint, the backups roll forward from their logs instead.
  if (switch_awaiting_checkpoint_ && old) {
    const bool old_head_gone =
        !old->members.empty() && !view.contains(old->members.front().process);
    if (old_head_gone) {
      switch_span_.note("rollback", "primary_crashed_before_checkpoint");
      if (dormant_cold()) install_stored_chain();
      replay_log(true);
      complete_switch();
      return;
    }
  }

  if (old && !uninitialized_) on_view_change(*old, view);
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

// --- per-style rules ------------------------------------------------------------

void Replicator::on_request(const RequestRecord& rec) {
  switch (style_) {
    case ReplicationStyle::kActive:
    case ReplicationStyle::kSemiActive:
      // Every replica executes (the state-machine approach); semi-active
      // followers stay silent, and a client retransmission after leader
      // failover hits the new leader's reply cache.
      execute_request(rec, /*send_reply=*/is_responder());
      return;
    case ReplicationStyle::kWarmPassive:
    case ReplicationStyle::kColdPassive:
    case ReplicationStyle::kHybrid:
      if (!is_responder()) {
        // Backups, hybrid observers and a still-launching cold promotee log.
        log_.append(rec);
        return;
      }
      execute_request(rec, /*send_reply=*/true);
      if (style_ != ReplicationStyle::kHybrid) checkpoint_if_due();
      return;
  }
}

void Replicator::on_checkpoint(const CheckpointMsg& msg) {
  switch (style_) {
    case ReplicationStyle::kActive:
    case ReplicationStyle::kSemiActive:
      return;  // every replica is always current
    case ReplicationStyle::kWarmPassive:
      install_checkpoint(msg);  // backups apply eagerly ("warm")
      return;
    case ReplicationStyle::kColdPassive:
      store_checkpoint(msg);  // retain without applying; installed at launch
      return;
    case ReplicationStyle::kHybrid:
      // The core is current; observers install with warm semantics.
      if (my_rank() >= first_stale_rank(style_)) install_checkpoint(msg);
      return;
  }
}

void Replicator::on_view_change(const gcs::View& old_view, const gcs::View& new_view) {
  // Crash recovery of the clients' pending requests is the client
  // coordinator's retransmission job; a style acts only when this replica
  // rises into the ranks it keeps current.
  const std::size_t first_stale = first_stale_rank(style_);
  if (first_stale == SIZE_MAX) return;  // active styles: survivors keep executing
  const auto old_rank = old_view.rank_of(process_.id());
  const auto new_rank = new_view.rank_of(process_.id());
  if (!new_rank || *new_rank >= first_stale) return;
  if (old_rank && *old_rank < first_stale) return;  // already current
  if (style_ == ReplicationStyle::kHybrid) {
    // Ascending into the core: catch up from the log. Reply while replaying
    // only when we are the new head (other core members may all be gone).
    replay_log(/*send_replies=*/*new_rank == 0);
  } else if (style_ == ReplicationStyle::kWarmPassive) {
    // The primary failed (or left): replay the log since the last
    // checkpoint and assume primary duties.
    promote_warm();
  } else {
    promote_cold();
  }
}

void Replicator::on_timer() {
  switch (style_) {
    case ReplicationStyle::kActive:
    case ReplicationStyle::kSemiActive:
      return;
    case ReplicationStyle::kWarmPassive:
    case ReplicationStyle::kColdPassive:
      if (is_responder()) checkpoint_tick();
      return;
    case ReplicationStyle::kHybrid:
      // Observers are third-tier redundancy: the core already absorbs single
      // failures instantly, so they are kept warm on a relaxed cadence — every
      // few ticks, not per batch of requests. That is what keeps hybrid
      // cheaper on the wire than both active and warm passive.
      if (my_rank() == 0 && ++hybrid_ticks_ % kHybridObserverSyncEvery == 0) {
        checkpoint_tick();
      }
      return;
  }
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
  Frontier& frontier = applied_rid_[rec.request_id.client];
  if (rec.request_id.seq <= frontier.seq && !params_.skip_reply_dedup) {
    obs::Span span;
    if (rec.trace.valid()) {
      span = tracer.start_span("rep.execute", "replication", process_.name(),
                               rec.trace);
    }
    if (send_reply) {
      if (auto cached = reply_cache_.get(rec.request_id)) {
        span.note("outcome", "dedup_cache_hit");
        send_reply_to_client(rec.request_id, rec.client_daemon, rec.trace, *cached);
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
  frontier.seq = std::max(frontier.seq, rec.request_id.seq);
  if (frontier.moved_in != cut_generation_) {
    frontier.moved_in = cut_generation_;
    moved_clients_.push_back(rec.request_id.client);
  }

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
  orb_.handle_request(rec.giop, [this, span = std::move(exec_span), rid = rec.request_id,
                                 client_daemon = rec.client_daemon, trace = rec.trace,
                                 send_reply](Payload reply_giop) mutable {
    span.end();
    // The cache entry and the reply in flight share one buffer.
    reply_cache_.put(rid, reply_giop);
    if (send_reply) send_reply_to_client(rid, client_daemon, trace, reply_giop);
    quiescence_.end_execution();
  });
}

void Replicator::send_reply_to_client(const RequestId& rid, NodeId daemon,
                                      const obs::TraceContext& trace,
                                      const Payload& reply_giop) {
  // Interposition cost on the way out, then unicast to the client's daemon.
  network_.cpu(process_.host())
      .execute(calib::kReplicatorTraversal,
               process_.guarded([this, rid, daemon, trace,
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

Payload Replicator::augment_reply(const Payload& reply_giop) const {
  orb::GiopMessage parsed = orb::decode_giop(reply_giop);
  VDEP_ASSERT(parsed.reply.has_value());
  const orb::FtGroupVersion version{
      view_ ? view_->view_id : 0, view_ ? static_cast<std::uint32_t>(view_->size()) : 0,
      static_cast<std::uint32_t>(std::min<std::size_t>(my_rank(), 0xffffffff))};
  parsed.reply->service_contexts.push_back(
      orb::to_context(orb::kFtGroupVersionContextId, version));
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
  if (stopped_ || uninitialized_) return;
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

void Replicator::checkpoint_tick() {
  if (view_ && view_->size() > first_stale_rank(style_)) {
    // A clean round would multicast what every member already holds: every
    // state change is an execution, and every execution moves a frontier.
    // The first cut of a lineage (at start, after an install) is owed
    // anyway: the backups' chains start from it. Donations, anchor requests
    // and switch finals never come through the timer.
    const bool owed = !last_cut_id_.has_value() || anchor_requested_;
    if (owed || !moved_clients_.empty()) take_checkpoint();
  } else {
    // Nobody to keep current: a local recovery point. Costs quiescence +
    // serialization, no traffic.
    take_local_checkpoint();
  }
}

bool Replicator::can_cut_delta() const {
  return !anchor_requested_ && params_.checkpoint_anchor_interval > 1 &&
         app_.supports_delta() && last_cut_id_.has_value() &&
         chain_deltas_.size() + 1 < params_.checkpoint_anchor_interval;
}

std::uint64_t Replicator::next_checkpoint_id() {
  ++checkpoint_counter_;
  executions_since_checkpoint_ = 0;
  const std::uint64_t id = (process_.id().value() << 20) | checkpoint_counter_;
  if (on_checkpoint_) on_checkpoint_(id);
  return id;
}

CheckpointMsg Replicator::new_cut(bool delta) {
  CheckpointMsg msg;
  msg.checkpoint_id = next_checkpoint_id();
  std::size_t replies = kCheckpointReplyEntries;
  if (delta) {
    msg.applied.reserve(moved_clients_.size());
    for (ProcessId client : moved_clients_) {
      msg.applied.emplace_back(client, applied_rid_.at(client).seq);
    }
    std::ranges::sort(msg.applied);
    replies = std::min<std::uint64_t>(replies, reply_cache_.added() - last_cut_replies_);
  } else {
    msg.applied = applied_frontier();
  }
  msg.reply_cache = reply_cache_.serialize_recent(replies);
  return msg;
}

void Replicator::cut_and_multicast(bool donation) {
  cut_pending_ = false;
  // Cut a dirty-set delta when the cadence knob allows it and the app can
  // still answer for the previous cut (a restore in between makes it full).
  std::optional<Bytes> delta;
  if (can_cut_delta()) delta = app_.snapshot_delta(last_cut_app_epoch_);
  const bool is_delta = delta.has_value();
  CheckpointMsg msg = new_cut(is_delta);
  const std::uint64_t id = msg.checkpoint_id;

  std::optional<std::size_t> delta_bytes;
  if (is_delta) {
    msg.kind = CheckpointMsg::Kind::kDelta;
    msg.base_epoch = *last_cut_id_;
    msg.delta_epoch = id;
    msg.app_state = std::move(*delta);
    delta_bytes = msg.app_state.size();
  } else {
    msg.app_state = app_.snapshot();
  }
  last_cut_app_epoch_ = app_.cut_epoch();
  last_cut_id_ = id;
  last_cut_replies_ = reply_cache_.added();
  moved_clients_.clear();
  ++cut_generation_;
  installed_epoch_ = id;

  // Encode once; the chain retains the same buffers a later state-transfer
  // bundle ships (zero-copy fan-out).
  Payload enc = msg.encode();
  if (is_delta) {
    chain_deltas_.push_back(enc);
    ++checkpoints_delta_;
  } else {
    chain_anchor_ = enc;
    chain_deltas_.clear();
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
    next_checkpoint_id();
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
  // The state now *is* the snapshot (or the snapshot plus this delta); the
  // applied frontier and reply cache must match it, and any chain retained
  // for a cold launch is superseded. A delta carries only the frontiers that
  // moved and the replies added since its base, which this replica holds:
  // merging them gives what a full checkpoint of the same cut would. The
  // replies decode, and the app state decodes and applies, before anything
  // else changes: a malformed part throws and installs nothing.
  auto replies = ReplyCache::decode(msg.reply_cache);
  if (is_delta) {
    app_.apply_delta(msg.app_state);
    ++installs_delta_;
    for (const auto& [client, seq] : msg.applied) {
      Frontier& frontier = applied_rid_[client];
      frontier.seq = std::max(frontier.seq, seq);
    }
    reply_cache_.append(std::move(replies), kCheckpointReplyEntries);
  } else {
    app_.restore(msg.app_state);
    ++installs_full_;
    anchor_request_outstanding_ = false;  // the anchor we asked for arrived
    // Rewrite the frontier in place: both sides are sorted by client, so one
    // merge pass keeps the nodes of clients present in both.
    auto it = applied_rid_.begin();
    for (const auto& [client, seq] : msg.applied) {
      while (it != applied_rid_.end() && it->first < client) it = applied_rid_.erase(it);
      if (it != applied_rid_.end() && it->first == client) {
        (it++)->second = Frontier{seq, 0};
      } else {
        applied_rid_.emplace_hint(it, client, Frontier{seq, 0});
      }
    }
    applied_rid_.erase(it, applied_rid_.end());
    moved_clients_.clear();
    reply_cache_.restore(std::move(replies));
  }
  log_.truncate_covered([this](ProcessId client) -> std::uint64_t {
    const auto it = applied_rid_.find(client);
    return it == applied_rid_.end() ? 0 : it->second.seq;
  });
  installed_epoch_ = msg.checkpoint_id;
  const std::size_t state_size = msg.app_state.size();
  stored_chain_.clear();
  // Our own cut lineage (as a past or future checkpoint taker) is superseded
  // by the installed state: the next cut we take must be a full anchor.
  last_cut_id_.reset();
  chain_anchor_ = Payload();
  chain_deltas_.clear();
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
  // Per part: a delta's moved frontiers cover what its predecessors' did not.
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
  for (const RequestRecord& rec : log_.take_all()) execute_request(rec, send_replies);
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
  replay_log(true);
}

bool Replicator::dormant_cold() const {
  return style_ == ReplicationStyle::kColdPassive && !is_responder();
}

void Replicator::promote_cold() {
  if (cold_launch_pending_) return;
  cold_launch_pending_ = true;
  process_.post(kColdLaunchDelay, [this] {
    trace_promotion(ReplicationStyle::kColdPassive);
    install_stored_chain();
    cold_launch_pending_ = false;
    replay_log(true);
  });
}

void Replicator::request_style_switch(ReplicationStyle target) {
  // Fig. 5, step I: one or more replicas send a "switch" message to the
  // whole group; duplicates are discarded at delivery.
  if (!process_.alive() || stopped_) return;
  if (target == style_) return;
  SwitchMsg msg;
  msg.target = target;
  msg.initiator = process_.id();
  RepEnvelope env{RepEnvelope::Type::kSwitch, msg.encode()};
  endpoint_->multicast(group_, gcs::ServiceType::kAgreed, env.encode());
}

}  // namespace vdep::replication
