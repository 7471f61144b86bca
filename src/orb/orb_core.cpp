#include "orb/orb_core.hpp"

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vdep::orb {

// --- ClientOrb -----------------------------------------------------------------

ClientOrb::ClientOrb(net::Network& network, sim::Process& process,
                     SimTime traversal_cost)
    : network_(network), process_(process), traversal_cost_(traversal_cost) {}

void ClientOrb::use_transport(std::unique_ptr<ClientTransport> transport) {
  transport_ = std::move(transport);
  const std::uint64_t incarnation = process_.incarnation();
  transport_->set_reply_handler([this, incarnation](Payload&& giop) {
    if (!process_.alive() || process_.incarnation() != incarnation) return;
    on_reply_bytes(std::move(giop));
  });
}

std::uint32_t ClientOrb::invoke(const ObjectRef& ref, const std::string& operation,
                                Bytes args, ResponseCb cb) {
  VDEP_ASSERT_MSG(transport_ != nullptr, "no transport configured");
  RequestMessage req;
  req.request_id = next_request_id_++;
  req.object_key = ref.object_key;
  req.operation = operation;
  req.body = std::move(args);

  // Root span of the whole request tree; ends when the reply retires the
  // pending entry. Everything downstream — transport, daemon, replicas —
  // parents under this context.
  obs::Span span = process_.kernel().tracer().start_span(
      "client.request", "orb", process_.name());
  span.note("op", operation);
  const obs::TraceContext ctx = span.context();
  pending_[req.request_id] = Pending{std::move(cb), std::move(span)};

  network_.cpu(process_.host())
      .execute(traversal_cost_,
               process_.guarded([this, ref, ctx, giop = req.encode()]() mutable {
                 obs::Tracer::Scope scope(process_.kernel().tracer(), ctx);
                 transport_->send_request(ref, std::move(giop));
               }));
  return req.request_id;
}

void ClientOrb::cancel(std::uint32_t request_id) {
  pending_.erase(request_id);
  if (transport_) transport_->cancel(request_id);
}

void ClientOrb::on_reply_bytes(Payload&& giop) {
  network_.cpu(process_.host())
      .execute(traversal_cost_, process_.guarded([this, raw = std::move(giop)] {
        GiopMessage msg = decode_giop(raw);
        if (msg.type != GiopMsgType::kReply || !msg.reply) {
          log_warn(process_.now(), "orb", "client got non-reply GIOP message");
          return;
        }
        auto it = pending_.find(msg.reply->request_id);
        if (it == pending_.end()) return;  // late/duplicate reply
        Pending entry = std::move(it->second);
        pending_.erase(it);
        entry.span.note("status",
                        std::to_string(static_cast<std::uint32_t>(msg.reply->status)));
        entry.span.end();
        entry.cb(msg.reply->status, std::move(msg.reply->body));
      }));
}

// --- ServerOrb -----------------------------------------------------------------

ServerOrb::ServerOrb(net::Network& network, sim::Process& process, Poa& poa,
                     SimTime traversal_cost)
    : network_(network), process_(process), poa_(poa), traversal_cost_(traversal_cost) {}

void ServerOrb::handle_request(Payload giop_request, ReplySender send_reply) {
  // The caller's context (e.g. the replicator's rep.execute span) is only
  // current *now*; capture it before deferring through the CPU queue.
  const obs::TraceContext caller = process_.kernel().tracer().current();
  network_.cpu(process_.host())
      .execute(
          traversal_cost_,
          process_.guarded([this, caller, raw = std::move(giop_request),
                            send_reply = std::move(send_reply)]() mutable {
            GiopMessage msg = decode_giop(raw);
            if (msg.type != GiopMsgType::kRequest || !msg.request) {
              log_warn(process_.now(), "orb", "server got non-request GIOP message");
              return;
            }
            RequestMessage& req = *msg.request;

            // Prefer the in-process caller (the replicator's execute span);
            // fall back to the propagated GIOP trace context (direct path).
            obs::TraceContext parent = caller;
            if (!parent.valid()) parent = trace_from_contexts(req.service_contexts);
            obs::Span span = process_.kernel().tracer().start_span(
                "orb.dispatch", "orb", process_.name(), parent);
            span.note("op", req.operation);

            ReplyMessage rep;
            rep.request_id = req.request_id;
            SimTime exec_time = kTimeZero;

            Servant* servant = poa_.find(req.object_key);
            if (servant == nullptr) {
              rep.status = ReplyStatus::kSystemException;
            } else {
              Servant::Result result = servant->invoke(req.operation, req.body);
              exec_time = result.cpu_time;
              rep.status =
                  result.ok ? ReplyStatus::kNoException : ReplyStatus::kUserException;
              rep.body = std::move(result.output);
            }

            if (!req.response_expected) return;
            // std::function captures must be copyable; park the move-only
            // span in a shared_ptr (allocated only when tracing is on).
            std::shared_ptr<obs::Span> open;
            if (span.active()) open = std::make_shared<obs::Span>(std::move(span));
            network_.cpu(process_.host())
                .execute(exec_time + traversal_cost_,
                         process_.guarded([this, rep = std::move(rep), open,
                                           send_reply = std::move(send_reply)]() mutable {
                           obs::Tracer::Scope scope(
                               process_.kernel().tracer(),
                               open ? open->context() : obs::TraceContext{});
                           if (open) open->end();
                           send_reply(rep.encode());
                         }));
          }));
}

// --- direct TCP transports --------------------------------------------------------

DirectClientTransport::DirectClientTransport(net::ChannelManager& channels,
                                             NodeId local_host)
    : channels_(channels), local_(local_host) {}

void DirectClientTransport::send_request(const ObjectRef& ref, Payload giop) {
  VDEP_ASSERT_MSG(ref.direct.has_value(), "direct transport needs a direct profile");
  const auto key = std::make_pair(ref.direct->host, ref.direct->port);
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    auto channel = channels_.connect(local_, ref.direct->host, ref.direct->port);
    channel->set_receive_handler([this](Payload&& reply) { deliver_reply(std::move(reply)); });
    it = connections_.emplace(key, std::move(channel)).first;
  }
  it->second->send(std::move(giop));
}

DirectServerAcceptor::DirectServerAcceptor(net::ChannelManager& channels, NodeId host,
                                           std::uint16_t port, ServerOrb& orb)
    : channels_(channels), host_(host), port_(port) {
  channels_.listen(host, port, [this, &orb](net::ChannelPtr channel) {
    accepted_.push_back(channel);
    std::weak_ptr<net::Channel> weak = channel;
    channel->set_receive_handler([&orb, weak](Payload&& request) {
      orb.handle_request(std::move(request), [weak](Payload reply) {
        if (auto ch = weak.lock(); ch && ch->open()) ch->send(std::move(reply));
      });
    });
  });
}

DirectServerAcceptor::~DirectServerAcceptor() { channels_.stop_listening(host_, port_); }

}  // namespace vdep::orb
