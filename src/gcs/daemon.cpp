#include "gcs/daemon.hpp"

#include <algorithm>

#include "gcs/endpoint.hpp"
#include "net/link.hpp"
#include "obs/tracer.hpp"
#include "util/assert.hpp"
#include "util/calibration.hpp"
#include "util/logging.hpp"

namespace vdep::gcs {

namespace {
constexpr SimTime kLoopbackDelay = usec(4);
constexpr SimTime kControlCost = usec(5);
}  // namespace

Daemon::Daemon(sim::Kernel& kernel, net::Network& network, ProcessId pid, NodeId host,
               std::vector<NodeId> all_daemon_hosts)
    : sim::Process(kernel, pid, host, "gcsd@" + network.host_name(host)),
      network_(network),
      all_daemons_(std::move(all_daemon_hosts)) {
  std::sort(all_daemons_.begin(), all_daemons_.end());
  VDEP_ASSERT(!all_daemons_.empty());

  link_ = std::make_unique<ReliableLink>(
      *this, network_,
      [this](NodeId from, Payload&& inner) { on_link_deliver(from, std::move(inner)); },
      [this](NodeId from, Payload&&) {
        fd_->heartbeat_received(from);
        if (health_ != nullptr) health_->on_heartbeat(from, this->host(), now());
      });

  std::vector<NodeId> peers;
  for (NodeId d : all_daemons_) {
    if (d != host) peers.push_back(d);
  }
  fd_ = std::make_unique<FailureDetector>(
      *this, peers,
      [this](NodeId peer) {
        ByteWriter w;
        w.u64(this->host().value());
        link_->send_raw(peer, std::move(w).take());
      },
      [this](NodeId d) { on_suspect(d); });

  leader_ = all_daemons_.front();
  if (leader_ == host) leader_state_ = std::make_unique<LeaderState>(host);
}

Daemon::~Daemon() = default;

void Daemon::boot() {
  network_.bind(host(), net::Port::kGcsDaemon, [this](net::Packet&& p) {
    if (!alive()) return;
    on_packet(std::move(p));
  });
  fd_->start();
  stability_token_tick();
}

void Daemon::stability_token_tick() {
  // Models the Spread token rotation: the leader publishes stability
  // watermarks (which gate SAFE delivery) once per rotation, not per ack.
  if (leader_state_ != nullptr && !awaiting_sync_) {
    emit(leader_state_->publish_stability());
  }
  post(calib::kStabilityTokenInterval, [this] { stability_token_tick(); });
}

// --- packet pipeline ----------------------------------------------------------

void Daemon::on_packet(net::Packet&& packet) {
  // The link layer runs at "interrupt level": sequencing, deduplication and
  // acknowledgements happen immediately on receipt, exactly like kernel TCP.
  // If acks waited behind the protocol work queued on the CPU, an overloaded
  // daemon would look dead to its peers and their retransmissions would feed
  // the very backlog that delayed the acks — congestion collapse.
  if (packet.payload.empty()) return;
  link_->handle_packet(std::move(packet));
}

void Daemon::on_link_deliver(NodeId from, Payload&& inner) {
  // Price the protocol processing before doing it: the calibrated per-packet
  // daemon cost (per MTU fragment for bulk payloads such as checkpoints),
  // plus the sequencing decision when we are the leader ordering a Forward
  // (inner[0] == 1 is the Forward tag).
  static_assert(std::is_same_v<std::variant_alternative_t<0, InnerMsg>, Forward>,
                "the Forward tag byte is 1");
  SimTime cost = calib::kGcsDaemonPacketCost *
                 static_cast<std::int64_t>(net::fragment_count(inner.size()));
  if (is_leader() && !inner.empty() && inner[0] == 1) {
    cost += calib::kGcsSequencerCost;
  }
  network_.cpu(host()).execute(cost, guarded([this, from, raw = std::move(inner)] {
    handle_inner(from, decode_inner(raw));
  }));
}

void Daemon::handle_inner(NodeId from, InnerMsg&& msg) {
  if (awaiting_sync_ &&
      (std::holds_alternative<Forward>(msg) || std::holds_alternative<OrdAck>(msg))) {
    queued_during_sync_.emplace_back(from, std::move(msg));
    return;
  }
  std::visit(
      [this, from]<typename T>(T& m) {
        if constexpr (std::is_same_v<T, Forward>) handle_forward(from, std::move(m));
        else if constexpr (std::is_same_v<T, Ordered>) handle_ordered(std::move(m));
        else if constexpr (std::is_same_v<T, OrdAck>) handle_ord_ack(m);
        else if constexpr (std::is_same_v<T, StableMsg>) handle_stable(m);
        else if constexpr (std::is_same_v<T, FwdAck>) handle_fwd_ack(m);
        else if constexpr (std::is_same_v<T, Takeover>) handle_takeover(from, m);
        else if constexpr (std::is_same_v<T, SyncState>) handle_sync_state(std::move(m));
        else if constexpr (std::is_same_v<T, PrivateMsg>) handle_private(std::move(m));
        else static_assert(!sizeof(T), "unhandled inner message");
      },
      msg);
}

// --- sending --------------------------------------------------------------------

void Daemon::send_inner(NodeId to, const InnerMsg& msg) {
  if (to == host()) {
    // Loopback: skip the link layer; modest handoff delay, no re-encode.
    post(kLoopbackDelay, [this, m = msg]() mutable { handle_inner(host(), std::move(m)); });
    return;
  }
  link_->send(to, encode_inner(msg), inner_payload_size(msg));
}

void Daemon::emit(const LeaderState::Emissions& emissions) {
  for (const auto& e : emissions) {
    // Encode-once fan-out: the frame is built lazily on the first remote
    // destination and the same frozen buffer is shared across all of them.
    // `encoded` (not frame.empty()) gates the lazy build: a legitimate
    // zero-length frame cannot occur, but an emission with only loopback or
    // dead destinations must not encode at all.
    Payload frame;
    std::size_t payload_bytes = 0;
    bool encoded = false;
    for (NodeId to : e.dests) {
      if (to == host()) {
        // Loopback: skip the link layer; modest handoff delay, no encode.
        post(kLoopbackDelay,
             [this, m = e.msg]() mutable { handle_inner(host(), std::move(m)); });
        continue;
      }
      if (!fd_->alive(to)) continue;
      if (!encoded) {
        frame = encode_inner(e.msg);
        payload_bytes = inner_payload_size(e.msg);
        encoded = true;
      }
      link_->send(to, frame, payload_bytes);
    }
  }
}

void Daemon::send_forward_to_leader(const Forward& fwd) {
  if (leader_ == host()) {
    if (awaiting_sync_) {
      queued_during_sync_.emplace_back(host(), fwd);
      return;
    }
    VDEP_ASSERT(leader_state_ != nullptr);
    order_forward(fwd);
    return;
  }
  send_inner(leader_, fwd);
}

void Daemon::order_forward(const Forward& fwd) {
  // The sequencing decision, as a span parented under the sender's context so
  // the ordered hop shows up inside the request's trace.
  obs::Span span;
  if (fwd.trace.valid()) {
    span = kernel().tracer().start_span("gcs.order", "gcs", name(), fwd.trace);
    span.note("group", std::to_string(fwd.group.value()));
  }
  emit(leader_state_->handle_forward(fwd));
}

// --- message handlers -------------------------------------------------------------

void Daemon::handle_forward(NodeId /*from*/, Forward&& fwd) {
  if (leader_ == host() && leader_state_ != nullptr && !awaiting_sync_) {
    order_forward(fwd);
  } else {
    // Not the leader (stale sender routing): relay toward the current one.
    send_forward_to_leader(fwd);
  }
}

void Daemon::handle_ordered(Ordered&& msg) {
  auto [it, created] = buffers_.try_emplace(msg.group, GroupReceiveBuffer(msg.group));
  auto& buffer = it->second;

  // A forward of ours coming back ordered confirms it; belt-and-braces with
  // the explicit FwdAck.
  pending_.erase(PendingKey{msg.group, msg.origin});

  const GroupId group = msg.group;
  auto result = buffer.offer(msg, host());
  if (result.ack) send_inner(leader_, *result.ack);
  deliver_from_buffer(group);
}

void Daemon::handle_ord_ack(const OrdAck& ack) {
  if (leader_state_ != nullptr && !awaiting_sync_) {
    leader_state_->handle_ack(ack);
  }
}

void Daemon::handle_stable(const StableMsg& stable) {
  auto it = buffers_.find(stable.group);
  if (it == buffers_.end()) return;
  it->second.set_stable(stable.epoch, stable.upto);
  deliver_from_buffer(stable.group);
}

void Daemon::handle_fwd_ack(const FwdAck& ack) {
  pending_.erase(PendingKey{ack.group, ack.origin});
}

void Daemon::handle_takeover(NodeId from, const Takeover& t) {
  if (t.term <= term_) return;  // stale
  term_ = t.term;
  leader_ = t.leader;
  // Abort any takeover attempt of our own at a lower term.
  awaiting_sync_ = false;
  sync_collected_.clear();
  // The new leader only rose because everyone below it died.
  for (NodeId d : all_daemons_) {
    if (d < t.leader && d != host()) fd_->mark_dead(d);
  }
  if (leader_ != host()) leader_state_.reset();
  log_info(now(), "gcs", name() + " accepts leader daemon@" + t.leader.str() +
                             " term " + std::to_string(t.term));
  send_inner(from, local_sync_state(t.term));
}

void Daemon::handle_sync_state(SyncState&& st) {
  if (!awaiting_sync_ || st.term != sync_term_) return;
  sync_collected_.emplace(st.from, std::move(st));
  maybe_finish_takeover();
}

void Daemon::handle_private(PrivateMsg&& msg) {
  if (!endpoints_.contains(msg.destination)) return;
  const ProcessId dst = msg.destination;
  post(kLoopbackDelay, [this, dst, m = std::move(msg)] {
    auto eit = endpoints_.find(dst);
    if (eit == endpoints_.end()) return;
    // Copy: a handler may destroy/create endpoints.
    auto eps = eit->second;
    for (Endpoint* ep : eps) {
      if (!ep->process().alive()) continue;
      obs::Span span;
      if (m.trace.valid()) {
        span = kernel().tracer().start_span("gcs.deliver", "gcs", name(), m.trace);
      }
      obs::Tracer::Scope scope(kernel().tracer(),
                               span.active() ? span.context() : m.trace);
      ep->deliver_private(PrivateMessage{m.sender, m.destination, m.payload, m.trace});
    }
  });
}

// --- delivery to local endpoints ----------------------------------------------------

void Daemon::deliver_from_buffer(GroupId group) {
  auto it = buffers_.find(group);
  if (it == buffers_.end()) return;
  std::vector<LocalDelivery> batch;
  for (const Ordered& msg : it->second.take_deliverable()) {
    deliver_one(msg, batch);
  }
  if (!batch.empty()) {
    // One kernel event for the whole deliverable run. The per-item posts this
    // replaces were scheduled back-to-back at the same time, so they fired as
    // consecutive same-tick events anyway — running the items in order inside
    // one dispatch preserves that order exactly.
    post(kLoopbackDelay, [this, items = std::move(batch)] {
      for (const LocalDelivery& d : items) fire_local_delivery(d);
    });
  }
  // Stop tracking groups we no longer serve.
  auto vit = delivery_views_.find(group);
  if (vit != delivery_views_.end()) {
    const bool any_local = std::any_of(
        vit->second.members.begin(), vit->second.members.end(),
        [this](const Member& m) { return m.daemon == host(); });
    if (!any_local) {
      buffers_.erase(group);
      delivery_views_.erase(vit);
    }
  }
}

void Daemon::deliver_one(const Ordered& msg, std::vector<LocalDelivery>& batch) {
  if (msg.kind == Ordered::Kind::kView) {
    View view = View::decode(msg.payload);
    if (kernel().tracer().enabled()) {
      // View changes start their own trace: nothing upstream caused them from
      // the application's point of view.
      auto span = kernel().tracer().start_span("gcs.view", "gcs", name());
      span.note("group", std::to_string(view.group.value()));
      span.note("view_id", std::to_string(view.view_id));
      span.note("members", std::to_string(view.members.size()));
    }
    // Notify local processes that are in the new view or were in the old one
    // (so leavers learn of their own removal).
    std::set<ProcessId> notify;
    auto old = delivery_views_.find(msg.group);
    if (old != delivery_views_.end()) {
      for (const auto& m : old->second.members) {
        if (m.daemon == host()) notify.insert(m.process);
      }
    }
    for (const auto& m : view.members) {
      if (m.daemon == host()) notify.insert(m.process);
    }
    delivery_views_[msg.group] = view;
    for (ProcessId pid : notify) {
      batch.push_back(LocalDelivery{pid, view, GroupMessage{}});
    }
    return;
  }

  auto vit = delivery_views_.find(msg.group);
  if (vit == delivery_views_.end()) return;
  for (const auto& m : vit->second.members) {
    if (m.daemon != host()) continue;
    GroupMessage gm;
    gm.group = msg.group;
    gm.svc = msg.svc;
    gm.sender = msg.origin.sender;
    gm.sender_daemon = msg.origin_daemon;
    gm.payload = msg.payload;
    gm.trace = msg.trace;
    batch.push_back(LocalDelivery{m.process, std::nullopt, std::move(gm)});
  }
}

void Daemon::fire_local_delivery(const LocalDelivery& d) {
  auto eit = endpoints_.find(d.pid);
  if (eit == endpoints_.end()) return;
  // Copy: delivery may register/unregister endpoints.
  auto eps = eit->second;
  if (d.view) {
    for (Endpoint* ep : eps) {
      if (!ep->process().alive()) continue;
      // Only the endpoint joined to this group cares; a voluntary leaver
      // already knows it left and gets no farewell view.
      if (!ep->joined_groups().contains(d.view->group)) continue;
      ep->deliver_view(*d.view);
    }
    return;
  }
  for (Endpoint* ep : eps) {
    if (!ep->process().alive()) continue;
    if (!ep->joined_groups().contains(d.gm.group)) continue;
    obs::Span span;
    if (d.gm.trace.valid()) {
      span = kernel().tracer().start_span("gcs.deliver", "gcs", name(), d.gm.trace);
    }
    obs::Tracer::Scope scope(kernel().tracer(),
                             span.active() ? span.context() : d.gm.trace);
    ep->deliver_message(d.gm);
  }
}

// --- leadership -----------------------------------------------------------------------

NodeId Daemon::lowest_live_daemon() const {
  for (NodeId d : all_daemons_) {
    if (d == host() || fd_->alive(d)) return d;
  }
  return host();
}

void Daemon::on_suspect(NodeId daemon) {
  link_->forget_peer(daemon);

  if (leader_state_ != nullptr && !awaiting_sync_ && leader_ == host()) {
    emit(leader_state_->handle_daemon_death(daemon));
  }
  if (awaiting_sync_) {
    sync_collected_.erase(daemon);
    maybe_finish_takeover();
    return;
  }
  if (daemon == leader_) {
    const NodeId next = lowest_live_daemon();
    if (next == host()) {
      start_takeover();
    } else {
      leader_ = next;  // tentative; the Takeover announcement confirms it
    }
  }
}

void Daemon::start_takeover() {
  awaiting_sync_ = true;
  sync_term_ = term_ + 1;
  sync_collected_.clear();
  sync_collected_.emplace(host(), local_sync_state(sync_term_));
  log_info(now(), "gcs", name() + " starts takeover, term " + std::to_string(sync_term_));
  for (NodeId d : fd_->live_peers()) {
    send_inner(d, Takeover{sync_term_, host()});
  }
  maybe_finish_takeover();
}

void Daemon::maybe_finish_takeover() {
  if (!awaiting_sync_) return;
  for (NodeId d : fd_->live_peers()) {
    if (!sync_collected_.contains(d)) return;  // still waiting
  }
  awaiting_sync_ = false;
  term_ = sync_term_;
  leader_ = host();

  std::vector<SyncState> states;
  for (auto& [daemon, st] : sync_collected_) states.push_back(std::move(st));
  sync_collected_.clear();

  std::vector<NodeId> live = fd_->live_peers();
  live.push_back(host());
  std::sort(live.begin(), live.end());

  leader_state_ = std::make_unique<LeaderState>(host());
  if (kernel().tracer().enabled()) {
    auto span = kernel().tracer().start_span("gcs.takeover", "gcs", name());
    span.note("term", std::to_string(term_));
    span.note("synced_daemons", std::to_string(states.size()));
  }
  log_info(now(), "gcs", name() + " is leader, term " + std::to_string(term_));
  emit(leader_state_->bootstrap(states, live));

  auto queued = std::move(queued_during_sync_);
  queued_during_sync_.clear();
  for (auto& [from, msg] : queued) handle_inner(from, std::move(msg));
}

SyncState Daemon::local_sync_state(std::uint64_t term) const {
  SyncState st;
  st.term = term;
  st.from = host();
  for (const auto& [group, buffer] : buffers_) {
    auto buffered = buffer.snapshot_buffered();
    st.buffered.insert(st.buffered.end(), buffered.begin(), buffered.end());
    auto acks = buffer.current_acks(host());
    st.acks.insert(st.acks.end(), acks.begin(), acks.end());
    if (buffer.last_delivered_view()) st.views.push_back(*buffer.last_delivered_view());
  }
  for (const auto& [key, fwd] : pending_) st.pending.push_back(fwd);
  return st;
}

// --- endpoint interface ------------------------------------------------------------------

void Daemon::register_endpoint(Endpoint& ep) {
  const ProcessId pid = ep.id();
  endpoints_[pid].push_back(&ep);
  if (health_ != nullptr) {
    health_->on_endpoint_registered(pid, host(), ep.process().name(), now());
  }
  if (crash_subscribed_.insert(pid).second) {
    ep.process().subscribe_crash([this, pid](ProcessId) {
      if (!alive()) return;
      auto it = endpoints_.find(pid);
      if (it == endpoints_.end()) return;
      auto eps = it->second;
      if (health_ != nullptr && !eps.empty()) {
        health_->on_endpoint_crashed(pid, host(), eps.front()->process().name(), now());
      }
      for (Endpoint* dead : eps) {
        for (GroupId group : dead->joined_groups()) {
          Forward fwd;
          fwd.group = group;
          fwd.kind = Forward::Kind::kCrash;
          fwd.origin = OriginId{pid, dead->next_origin_seq()};
          fwd.origin_daemon = host();
          pending_[PendingKey{group, fwd.origin}] = fwd;
          send_forward_to_leader(fwd);
        }
        dead->joined_.clear();
      }
    });
  }
}

void Daemon::unregister_endpoint(Endpoint& ep) {
  auto it = endpoints_.find(ep.id());
  if (it == endpoints_.end()) return;
  std::erase(it->second, &ep);
  if (it->second.empty()) endpoints_.erase(it);
}

void Daemon::submit_join(ProcessId pid, GroupId group, std::uint64_t origin_seq) {
  Forward fwd;
  fwd.group = group;
  fwd.kind = Forward::Kind::kJoin;
  fwd.origin = OriginId{pid, origin_seq};
  fwd.origin_daemon = host();
  network_.cpu(host()).execute(kControlCost, guarded([this, fwd] {
    pending_[PendingKey{fwd.group, fwd.origin}] = fwd;
    send_forward_to_leader(fwd);
  }));
}

void Daemon::submit_leave(ProcessId pid, GroupId group, std::uint64_t origin_seq) {
  Forward fwd;
  fwd.group = group;
  fwd.kind = Forward::Kind::kLeave;
  fwd.origin = OriginId{pid, origin_seq};
  fwd.origin_daemon = host();
  network_.cpu(host()).execute(kControlCost, guarded([this, fwd] {
    pending_[PendingKey{fwd.group, fwd.origin}] = fwd;
    send_forward_to_leader(fwd);
  }));
}

void Daemon::submit_multicast(ProcessId pid, GroupId group, ServiceType svc,
                              Payload payload, std::uint64_t origin_seq) {
  Forward fwd;
  fwd.group = group;
  fwd.kind = Forward::Kind::kData;
  fwd.svc = svc;
  fwd.origin = OriginId{pid, origin_seq};
  fwd.origin_daemon = host();
  fwd.payload = std::move(payload);
  // Capture the caller's context synchronously — by the time the CPU queue
  // runs the send, `current()` belongs to someone else.
  fwd.trace = kernel().tracer().current();
  const SimTime cost = calib::kGcsDaemonPacketCost *
                       static_cast<std::int64_t>(net::fragment_count(fwd.payload.size()));
  network_.cpu(host()).execute(cost, guarded([this, fwd = std::move(fwd)] {
    if (fwd.svc != ServiceType::kBestEffort) {
      pending_[PendingKey{fwd.group, fwd.origin}] = fwd;
    }
    send_forward_to_leader(fwd);
  }));
}

void Daemon::submit_unicast(ProcessId pid, ProcessId dst, NodeId dst_daemon,
                            Payload payload) {
  PrivateMsg msg;
  msg.sender = pid;
  msg.sender_daemon = host();
  msg.destination = dst;
  msg.payload = std::move(payload);
  msg.trace = kernel().tracer().current();
  const SimTime cost = calib::kGcsDaemonPacketCost *
                       static_cast<std::int64_t>(net::fragment_count(msg.payload.size()));
  network_.cpu(host()).execute(cost, guarded([this, dst_daemon, m = std::move(msg)] {
    send_inner(dst_daemon, m);
  }));
}

}  // namespace vdep::gcs
