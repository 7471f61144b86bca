// The adaptation manager: one per replica, tying monitoring to the switch
// protocol (paper Sec. 2 item 4 and Sec. 4.2).
//
// Each manager periodically evaluates the active policy against the signals
// published through the replicated system-state object; when the desired
// style differs from the current one it initiates a switch. Several replicas
// may initiate concurrently — the protocol's step I discards duplicates —
// and because all managers read the *agreed* state, their decisions align.
//
// A HealthMonitor can be attached as a second signal source: the manager
// then also fills the Signals' health fields (link suspicion, suspected
// replicas, SLO burn) so policies such as HealthThresholdPolicy can react
// to dependability risk, not just load.
#pragma once

#include <memory>

#include "adaptive/policy.hpp"
#include "monitor/health/health_monitor.hpp"
#include "monitor/replicated_state.hpp"
#include "replication/replicator.hpp"

namespace vdep::adaptive {

class AdaptationManager {
 public:
  AdaptationManager(replication::Replicator& replicator,
                    monitor::ReplicatedStateObject& state,
                    std::unique_ptr<AdaptationPolicy> policy,
                    SimTime evaluate_interval = msec(100));

  // Without a replicated-state object the request rate comes from the local
  // replicator; pair this with a health source for health-driven policies.
  AdaptationManager(replication::Replicator& replicator,
                    std::unique_ptr<AdaptationPolicy> policy,
                    SimTime evaluate_interval = msec(100));

  // Attaches the health plane as a signal source (must outlive the manager).
  void set_health_source(const monitor::health::HealthMonitor* health) {
    health_ = health;
  }

  void start();

  [[nodiscard]] const AdaptationPolicy& policy() const { return *policy_; }

 private:
  void evaluate();

  replication::Replicator& replicator_;
  monitor::ReplicatedStateObject* state_;  // may be null
  const monitor::health::HealthMonitor* health_ = nullptr;
  std::unique_ptr<AdaptationPolicy> policy_;
  SimTime interval_;
};

}  // namespace vdep::adaptive
