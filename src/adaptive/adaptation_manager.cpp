#include "adaptive/adaptation_manager.hpp"

#include "obs/tracer.hpp"
#include "util/logging.hpp"

namespace vdep::adaptive {

AdaptationManager::AdaptationManager(replication::Replicator& replicator,
                                     monitor::ReplicatedStateObject& state,
                                     std::unique_ptr<AdaptationPolicy> policy,
                                     SimTime evaluate_interval)
    : replicator_(replicator),
      state_(&state),
      policy_(std::move(policy)),
      interval_(evaluate_interval) {}

AdaptationManager::AdaptationManager(replication::Replicator& replicator,
                                     std::unique_ptr<AdaptationPolicy> policy,
                                     SimTime evaluate_interval)
    : replicator_(replicator),
      state_(nullptr),
      policy_(std::move(policy)),
      interval_(evaluate_interval) {}

void AdaptationManager::start() {
  replicator_.process().post(interval_, [this] {
    evaluate();
    start();
  });
}

void AdaptationManager::set_policy(std::unique_ptr<AdaptationPolicy> policy) {
  policy_ = std::move(policy);
}

void AdaptationManager::evaluate() {
  Signals s;
  s.now = replicator_.process().now();
  if (state_ != nullptr) {
    s.request_rate = state_->aggregate_request_rate();
    s.cpu_load = state_->max_cpu_load();
  } else {
    s.request_rate = replicator_.observed_request_rate();
  }
  s.replicas = replicator_.current_view() ? replicator_.current_view()->size() : 0;
  if (health_ != nullptr) {
    s.max_phi = health_->max_phi();
    s.suspected_replicas = health_->suspected_replicas();
    s.slo_burn = health_->max_burn_rate();
    s.slo_breached = health_->slo_breached();
  }

  auto desired = policy_->evaluate(s);
  if (!desired) return;

  // Root span for the adaptation decision; the switch multicast (and thus the
  // whole Fig. 5 protocol downstream) parents under it via Tracer::Scope.
  obs::Tracer& tracer = replicator_.process().kernel().tracer();
  obs::Span span;
  if (tracer.enabled()) {
    span = tracer.start_span("adapt.decision", "adaptive",
                             replicator_.process().name());
    span.note("policy", policy_->name());
    span.note("rate", std::to_string(s.request_rate));
    span.note("cpu", std::to_string(s.cpu_load));
    span.note("replicas", std::to_string(s.replicas));
    if (health_ != nullptr) {
      span.note("max_phi", std::to_string(s.max_phi));
      span.note("suspected", std::to_string(s.suspected_replicas));
      span.note("slo_burn", std::to_string(s.slo_burn));
    }
    span.note("from", replication::to_string(replicator_.style()));
    span.note("to", replication::to_string(*desired));
  }

  if (replicator_.switch_in_progress()) {
    span.note("action", "suppressed_switch_in_progress");
    return;
  }
  if (*desired == replicator_.style()) {
    span.note("action", "suppressed_already_current");
    return;
  }

  log_info(s.now, "adaptation",
           replicator_.process().name() + " policy '" + policy_->name() +
               "' requests switch to " + replication::to_string(*desired) +
               " (rate=" + std::to_string(s.request_rate) + " req/s)");
  span.note("action", "initiated");
  obs::Tracer::Scope scope(tracer, span.context());
  replicator_.request_style_switch(*desired);
}

}  // namespace vdep::adaptive
