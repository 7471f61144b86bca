// Adaptation policies — the rules that map observed conditions to a desired
// replication configuration (paper Sec. 2 item 3, Sec. 3.1 "Adaptation
// Policies"). Policies can be pre-defined or installed at runtime; the
// AdaptationManager evaluates the active policy on the agreed system state
// and triggers the switch protocol when the desired style changes.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "monitor/threshold_watcher.hpp"
#include "replication/types.hpp"

namespace vdep::adaptive {

// What a policy sees when evaluated.
struct Signals {
  SimTime now = kTimeZero;
  double request_rate = 0.0;   // agreed requests/s at the service
  double cpu_load = 0.0;       // max CPU load across replicas
  double bandwidth_mbps = 0.0; // measured network usage
  double avg_latency_us = 0.0; // smoothed round-trip estimate
  std::size_t replicas = 0;

  // Health-plane signals, filled when the AdaptationManager has a
  // HealthMonitor source attached (all zero otherwise).
  double max_phi = 0.0;              // worst link suspicion level
  std::size_t suspected_replicas = 0;
  double slo_burn = 0.0;             // worst SLO error-budget burn rate
  bool slo_breached = false;
};

class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Returns the style the system should be using, or nullopt for "no
  // preference / keep current".
  virtual std::optional<replication::ReplicationStyle> evaluate(const Signals& s) = 0;
};

// The Fig. 6 policy: active replication above a request-rate threshold
// (it sustains higher arrival rates), warm passive below (it conserves
// resources). Hysteresis plus a minimum dwell prevent thrashing.
class RateThresholdPolicy final : public AdaptationPolicy {
 public:
  struct Config {
    double high_rate = 600.0;  // req/s: switch to active above this
    double low_rate = 350.0;   // req/s: switch back to passive below this
    SimTime min_dwell = msec(500);
  };

  RateThresholdPolicy() : RateThresholdPolicy(Config{}) {}
  explicit RateThresholdPolicy(Config config);

  [[nodiscard]] std::string name() const override { return "rate_threshold"; }
  std::optional<replication::ReplicationStyle> evaluate(const Signals& s) override;

 private:
  monitor::ThresholdWatcher watcher_;
};

// Health-driven policy: run the resource-conserving style while the health
// plane is quiet; degrade to the resilient style when dependability is at
// risk — a replica is suspected, a link's phi accrues past the suspicion
// threshold, or an SLO is burning its error budget. Recovery back to the
// normal style waits for every trigger to clear plus a minimum dwell, so a
// flapping signal cannot thrash the switch protocol.
class HealthThresholdPolicy final : public AdaptationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "health_threshold"; }
  std::optional<replication::ReplicationStyle> evaluate(const Signals& s) override;

 private:
  bool degraded_ = false;
  bool transitioned_once_ = false;
  SimTime last_transition_ = kTimeZero;
};

// Conserve-resources policy for mode-based applications (paper Sec. 5: run
// resource-conservative most of the time, switch to the high-performance
// style only during the mission-critical window). Driven externally by mode
// changes rather than by measurements.
class ModePolicy final : public AdaptationPolicy {
 public:
  enum class Mode { kConserving, kMissionCritical };

  [[nodiscard]] std::string name() const override { return "mode"; }

  void set_mode(Mode mode) { mode_ = mode; }
  [[nodiscard]] Mode mode() const { return mode_; }

  std::optional<replication::ReplicationStyle> evaluate(const Signals& s) override;

 private:
  Mode mode_ = Mode::kConserving;
};

}  // namespace vdep::adaptive
