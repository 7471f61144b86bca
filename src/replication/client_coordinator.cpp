#include "replication/client_coordinator.hpp"

#include "orb/giop.hpp"
#include "util/assert.hpp"
#include "util/calibration.hpp"
#include "util/logging.hpp"

namespace vdep::replication {

namespace {
constexpr SimTime kRetryTimeout = msec(400);
constexpr int kMaxRetries = 25;
constexpr SimTime kRequestExpiration = sec(30);  // FT_REQUEST expiration field
}  // namespace

ClientCoordinator::ClientCoordinator(net::Network& network, gcs::Daemon& daemon,
                                     sim::Process& process,
                                     ClientCoordinatorParams params)
    : network_(network), process_(process), params_(params) {
  endpoint_ = std::make_unique<gcs::Endpoint>(daemon, process);
  endpoint_->set_private_handler(
      [this](const gcs::PrivateMessage& msg) { on_private(msg); });
}

void ClientCoordinator::send_request(const orb::ObjectRef& ref, Payload giop) {
  VDEP_ASSERT_MSG(ref.group.has_value(),
                  "client coordinator needs a group profile in the object reference");

  // Interception: rewrite the request with the FT_REQUEST context so every
  // replica can identify it across retransmissions.
  orb::GiopMessage parsed = orb::decode_giop(giop);
  VDEP_ASSERT(parsed.request.has_value());

  orb::FtRequestContext ctx;
  ctx.client = process_.id();
  ctx.retention_id = parsed.request->request_id;
  ctx.client_daemon = endpoint_->daemon_host();
  ctx.expiration = process_.now() + kRequestExpiration;
  parsed.request->service_contexts.push_back(ctx.to_context());

  // The trace context is injected unconditionally (zeros when tracing is
  // off): the replicated request's wire size must not depend on tracing.
  obs::Span span = process_.kernel().tracer().start_child(
      "coord.send", "replication", process_.name());
  parsed.request->service_contexts.push_back(orb::trace_to_context(
      span.active() ? span.context() : obs::TraceContext{}));

  RepEnvelope env{RepEnvelope::Type::kRequest, parsed.request->encode()};

  Pending pending;
  pending.group = ref.group->group;
  pending.wire = env.encode();
  pending.span = std::move(span);
  const std::uint32_t request_id = parsed.request->request_id;
  auto [it, inserted] = outstanding_.emplace(request_id, std::move(pending));
  VDEP_ASSERT_MSG(inserted, "request id reused while outstanding");

  // Interposition cost, then multicast into the server group.
  network_.cpu(process_.host())
      .execute(calib::kReplicatorTraversal, process_.guarded([this, request_id] {
        auto pit = outstanding_.find(request_id);
        if (pit == outstanding_.end()) return;  // cancelled meanwhile
        transmit(request_id, pit->second);
      }));
}

void ClientCoordinator::transmit(std::uint32_t request_id, Pending& pending) {
  // The multicast inherits the coord.send context so the daemon-side Forward
  // carries it (retries rejoin the same trace).
  obs::Tracer::Scope scope(process_.kernel().tracer(), pending.span.context());
  endpoint_->multicast(pending.group, gcs::ServiceType::kAgreed, pending.wire);
  arm_retry(request_id);
}

void ClientCoordinator::arm_retry(std::uint32_t request_id) {
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) return;
  it->second.retry_timer.cancel();
  it->second.retry_timer = process_.post(kRetryTimeout, [this, request_id] {
    auto pit = outstanding_.find(request_id);
    if (pit == outstanding_.end()) return;
    if (pit->second.retries >= kMaxRetries) {
      pit->second.span.note("outcome", "gave_up");
      log_warn(process_.now(), "client-coord",
               process_.name() + " giving up on request " + std::to_string(request_id));
      outstanding_.erase(pit);
      return;
    }
    ++pit->second.retries;
    ++retransmissions_;
    if (pit->second.span.active()) {
      auto retry = process_.kernel().tracer().start_span(
          "coord.retry", "replication", process_.name(), pit->second.span.context());
      retry.note("attempt", std::to_string(pit->second.retries));
    }
    transmit(request_id, pit->second);
  });
}

void ClientCoordinator::cancel(std::uint32_t request_id) {
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) return;
  it->second.retry_timer.cancel();
  outstanding_.erase(it);
}

void ClientCoordinator::on_private(const gcs::PrivateMessage& msg) {
  // Interposition cost on the reply path, then coordinate.
  network_.cpu(process_.host())
      .execute(calib::kReplicatorTraversal,
               process_.guarded([this, sender = msg.sender, raw = msg.payload] {
                 orb::GiopMessage parsed = orb::decode_giop(raw);
                 if (parsed.type != orb::GiopMsgType::kReply || !parsed.reply) return;
                 const std::uint32_t request_id = parsed.reply->request_id;
                 auto it = outstanding_.find(request_id);
                 if (it == outstanding_.end()) return;  // duplicate reply
                 Pending& pending = it->second;

                 if (params_.policy == ResponsePolicy::kFirstReply) {
                   complete(request_id, raw);
                   return;
                 }

                 // Majority voting over reply bodies. One vote per replica;
                 // the required majority comes from the freshest view size
                 // replicas report in their FT group-version context.
                 if (pending.voters.contains(sender)) return;
                 pending.voters.insert(sender);
                 for (const auto& sc : parsed.reply->service_contexts) {
                   if (sc.context_id != orb::kFtGroupVersionContextId) continue;
                   orb::CdrReader r(sc.data);
                   (void)r.ulonglong();  // view id
                   const std::uint32_t size = r.ulong();
                   pending.best_view_size = std::max(pending.best_view_size, size);
                 }
                 const std::uint64_t body_hash = fnv1a(parsed.reply->body);
                 const int count = ++pending.votes[body_hash];
                 pending.exemplars.emplace(body_hash, raw);
                 const std::uint32_t view_size = std::max(pending.best_view_size, 1u);
                 if (static_cast<std::uint32_t>(count) >= view_size / 2 + 1) {
                   Payload winner = pending.exemplars[body_hash];
                   complete(request_id, std::move(winner));
                 }
               }));
}

void ClientCoordinator::complete(std::uint32_t request_id, Payload reply) {
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) return;
  it->second.retry_timer.cancel();
  it->second.span.note("retries", std::to_string(it->second.retries));
  it->second.span.end();
  outstanding_.erase(it);
  deliver_reply(std::move(reply));
}

}  // namespace vdep::replication
