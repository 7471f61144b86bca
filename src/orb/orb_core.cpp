#include "orb/orb_core.hpp"

#include "util/assert.hpp"

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
  req.body = Payload({}, args);  // a view of `args`, encoded below

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
        if (msg.type != GiopMsgType::kReply || !msg.reply) return;
        auto it = pending_.find(msg.reply->request_id);
        if (it == pending_.end()) return;  // late/duplicate reply
        Pending entry = std::move(it->second);
        pending_.erase(it);
        entry.span.note("status",
                        std::to_string(static_cast<std::uint32_t>(msg.reply->status)));
        entry.span.end();
        entry.cb(msg.reply->status, msg.reply->body.to_bytes());
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
            if (msg.type != GiopMsgType::kRequest || !msg.request) return;
            RequestMessage& req = *msg.request;

            // Prefer the in-process caller (the replicator's execute span);
            // fall back to the propagated GIOP trace context (direct path).
            obs::TraceContext parent = caller;
            if (!parent.valid()) {
              parent = from_contexts<obs::TraceContext>(req.service_contexts, kTraceContextId)
                           .value_or(obs::TraceContext{});
            }
            obs::Span span = process_.kernel().tracer().start_span(
                "orb.dispatch", "orb", process_.name(), parent);
            span.note("op", req.operation);

            ReplyMessage rep;
            rep.request_id = req.request_id;
            Servant::Result result;

            Servant* servant = poa_.find(req.object_key);
            if (servant == nullptr) {
              rep.status = ReplyStatus::kSystemException;
            } else {
              result = servant->invoke(req.operation, req.body.to_bytes());
              rep.status =
                  result.ok ? ReplyStatus::kNoException : ReplyStatus::kUserException;
              rep.body = Payload({}, result.output);  // a view, encoded below
            }

            if (!req.response_expected) return;
            network_.cpu(process_.host())
                .execute(result.cpu_time + traversal_cost_,
                         process_.guarded([this, reply = rep.encode(), span = std::move(span),
                                           send_reply = std::move(send_reply)]() mutable {
                           obs::Tracer::Scope scope(process_.kernel().tracer(),
                                                    span.context());
                           span.end();
                           send_reply(std::move(reply));
                         }));
          }));
}

// --- direct TCP transports --------------------------------------------------------

DirectClientTransport::DirectClientTransport(net::ChannelManager& channels,
                                             sim::Process& process, bool intercepted)
    : channels_(channels), process_(process), intercepted_(intercepted) {}

template <typename F>
void DirectClientTransport::pass(F&& fn) {
  if (!intercepted_) {
    fn();
    return;
  }
  channels_.network().cpu(process_.host()).execute(calib::kInterceptOnlyTraversal,
                                                   process_.guarded(std::forward<F>(fn)));
}

void DirectClientTransport::send_request(const ObjectRef& ref, Payload giop) {
  pass([this, ref, giop = std::move(giop)]() mutable {
    VDEP_ASSERT_MSG(ref.direct.has_value(), "direct transport needs a direct profile");
    const auto key = std::make_pair(ref.direct->host, ref.direct->port);
    auto it = connections_.find(key);
    if (it == connections_.end()) {
      auto channel = channels_.connect(process_.host(), ref.direct->host, ref.direct->port);
      channel->set_receive_handler([this](Payload&& reply) {
        pass([this, reply = std::move(reply)]() mutable { deliver_reply(std::move(reply)); });
      });
      it = connections_.emplace(key, std::move(channel)).first;
    }
    it->second->send(std::move(giop));
  });
}

DirectServerAcceptor::DirectServerAcceptor(net::ChannelManager& channels, NodeId host,
                                           std::uint16_t port, ServerOrb& orb,
                                           bool intercepted)
    : channels_(channels), host_(host), port_(port) {
  channels_.listen(host, port, [this, &orb, intercepted](net::ChannelPtr channel) {
    accepted_.push_back(channel);
    // Replies return on the originating channel while it lives. An
    // intercepted server runs one trampoline before the ORB sees a request
    // and one before its reply goes out.
    auto dispatch = [&orb, &network = channels_.network(), host = host_, intercepted,
                     weak = std::weak_ptr<net::Channel>(channel)](Payload&& request) {
      orb.handle_request(std::move(request), [&network, host, intercepted,
                                              weak](Payload reply) {
        auto send = [weak, reply = std::move(reply)]() mutable {
          if (auto ch = weak.lock()) ch->send(std::move(reply));
        };
        if (intercepted) {
          network.cpu(host).execute(calib::kInterceptOnlyTraversal, std::move(send));
        } else {
          send();
        }
      });
    };
    if (!intercepted) {
      channel->set_receive_handler(std::move(dispatch));
      return;
    }
    channel->set_receive_handler([&orb, &network = channels_.network(), host = host_,
                                  dispatch](Payload&& request) {
      network.cpu(host).execute(
          calib::kInterceptOnlyTraversal,
          orb.process().guarded([dispatch, request = std::move(request)]() mutable {
            dispatch(std::move(request));
          }));
    });
  });
}

DirectServerAcceptor::~DirectServerAcceptor() { channels_.stop_listening(host_, port_); }

}  // namespace vdep::orb
