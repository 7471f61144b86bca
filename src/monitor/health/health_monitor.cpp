#include "monitor/health/health_monitor.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vdep::monitor::health {

namespace {
// Suspicion level reported for a directly observed process death: the phi
// scale's cap, i.e. certainty (the co-located daemon saw the crash; there is
// no model uncertainty to accrue).
constexpr double kDirectObservation = 100.0;
constexpr SimTime kWindowInterval = msec(100);  // telemetry cut + SLO/probe cadence
constexpr SimTime kPhiInterval = msec(20);      // failure-detector evaluation cadence
constexpr std::size_t kWindows = 64;            // TimeSeries ring capacity
}  // namespace

HealthMonitor::HealthMonitor(sim::Kernel& kernel, MetricsRegistry& registry)
    : kernel_(kernel), registry_(registry), series_(kWindows) {}

void HealthMonitor::start() {
  if (running_) return;
  running_ = true;
  kernel_.post(kPhiInterval, [this] { phi_tick(); });
  kernel_.post(kWindowInterval, [this] { window_tick(); });
}

void HealthMonitor::add_slo(SloSpec spec) {
  const std::string name = spec.name;
  slos_.emplace(name, SloState{SloTracker(std::move(spec)), false, false});
  slo_status_.emplace(name, SloStatus{});
}

void HealthMonitor::add_probe(std::string name, double threshold,
                              std::function<double()> fn) {
  VDEP_ASSERT(threshold > 0.0);
  probes_.push_back(Probe{std::move(name), threshold, std::move(fn), false});
}

std::string HealthMonitor::link_label(NodeId from, NodeId at) {
  return from.str() + "->" + at.str();
}

// --- ingestion (called from daemon context) -----------------------------------

void HealthMonitor::on_heartbeat(NodeId from, NodeId at, SimTime now) {
  links_[std::make_pair(from, at)].detector.heartbeat(now);
}

void HealthMonitor::on_endpoint_registered(ProcessId pid, NodeId host,
                                           std::string_view name, SimTime now) {
  auto [it, created] =
      replicas_.try_emplace(pid, ReplicaState{std::string(name), host, false});
  it->second.label = std::string(name);
  it->second.host = host;
  if (!created && it->second.suspected) {
    it->second.suspected = false;
    stream_.emit(now, HealthEventKind::kReplicaClear, "replica:" + it->second.label,
                 pid.value(), host.value(), 0.0, PhiAccrualDetector::kPhiSuspect);
    registry_.add("health.events.replica_clear");
  }
}

void HealthMonitor::on_endpoint_crashed(ProcessId pid, NodeId host,
                                        std::string_view name, SimTime now) {
  auto [it, created] =
      replicas_.try_emplace(pid, ReplicaState{std::string(name), host, false});
  if (it->second.suspected) return;
  it->second.suspected = true;
  stream_.emit(now, HealthEventKind::kReplicaSuspect, "replica:" + it->second.label,
               pid.value(), host.value(), kDirectObservation,
               PhiAccrualDetector::kPhiSuspect);
  registry_.add("health.events.replica_suspect");
}

// --- cadences ------------------------------------------------------------------

void HealthMonitor::phi_tick() {
  if (!running_) return;
  const SimTime now = kernel_.now();
  for (auto& [key, link] : links_) {
    const double phi = link.detector.phi(now);
    link.last_phi = phi;
    registry_.set_gauge("health.phi." + link_label(key.first, key.second), phi);
    if (!link.suspected && phi >= PhiAccrualDetector::kPhiSuspect) {
      link.suspected = true;
      stream_.emit(now, HealthEventKind::kLinkSuspect,
                   "link:" + link_label(key.first, key.second), key.first.value(),
                   key.second.value(), phi, PhiAccrualDetector::kPhiSuspect);
      registry_.add("health.events.link_suspect");
    } else if (link.suspected && phi < PhiAccrualDetector::kPhiClear) {
      link.suspected = false;
      stream_.emit(now, HealthEventKind::kLinkClear,
                   "link:" + link_label(key.first, key.second), key.first.value(),
                   key.second.value(), phi, PhiAccrualDetector::kPhiClear);
      registry_.add("health.events.link_clear");
    }
  }
  // Per-replica suspicion: certainty for a directly observed death, else the
  // worst outbound link suspicion of the replica's host (how the rest of the
  // mesh currently sees that machine).
  for (const auto& [pid, replica] : replicas_) {
    double level = replica.suspected ? kDirectObservation : 0.0;
    if (!replica.suspected) {
      for (const auto& [key, link] : links_) {
        if (key.first == replica.host) level = std::max(level, link.last_phi);
      }
    }
    registry_.set_gauge("health.suspicion." + replica.label, level);
  }
  registry_.set_gauge("health.suspected_replicas",
                      static_cast<double>(suspected_replicas()));
  registry_.set_gauge("health.suspected_links",
                      static_cast<double>(suspected_links()));
  registry_.set_gauge("health.max_phi", max_phi());
  kernel_.post(kPhiInterval, [this] { phi_tick(); });
}

void HealthMonitor::window_tick() {
  if (!running_) return;
  const SimTime now = kernel_.now();
  series_.cut(registry_, now);

  for (auto& [name, slo] : slos_) {
    const SloStatus status = slo.tracker.evaluate(series_);
    slo_status_[name] = status;
    const auto& spec = slo.tracker.spec();
    registry_.set_gauge("health.slo." + name + ".p99_us", status.p99_us);
    registry_.set_gauge("health.slo." + name + ".availability", status.availability);
    registry_.set_gauge("health.slo." + name + ".burn_rate", status.burn_rate);
    registry_.set_gauge("health.slo." + name + ".attainment",
                        status.met() ? 1.0 : 0.0);
    if (status.burn_rate >= 1.0) {
      registry_.add("health.slo." + name + ".burn_windows");
    }

    if (!slo.latency_breached && !status.latency_met) {
      slo.latency_breached = true;
      stream_.emit(now, HealthEventKind::kSloLatencyBreach, "slo:" + name, 0, 0,
                   status.p99_us, spec.latency_p99_target_us);
      registry_.add("health.events.slo_latency_breach");
    } else if (slo.latency_breached && status.latency_met) {
      slo.latency_breached = false;
      stream_.emit(now, HealthEventKind::kSloLatencyRecover, "slo:" + name, 0, 0,
                   status.p99_us, spec.latency_p99_target_us);
      registry_.add("health.events.slo_latency_recover");
    }
    if (!slo.availability_breached && !status.availability_met) {
      slo.availability_breached = true;
      stream_.emit(now, HealthEventKind::kSloAvailabilityBreach, "slo:" + name, 0,
                   0, status.availability, spec.availability_target);
      registry_.add("health.events.slo_availability_breach");
    } else if (slo.availability_breached && status.availability_met) {
      slo.availability_breached = false;
      stream_.emit(now, HealthEventKind::kSloAvailabilityRecover, "slo:" + name, 0,
                   0, status.availability, spec.availability_target);
      registry_.add("health.events.slo_availability_recover");
    }
  }

  for (Probe& probe : probes_) {
    const double value = probe.fn();
    registry_.set_gauge("health.probe." + probe.name, value);
    if (!probe.anomalous && value >= probe.threshold) {
      probe.anomalous = true;
      stream_.emit(now, HealthEventKind::kQueueDepthAnomaly, "probe:" + probe.name,
                   0, 0, value, probe.threshold);
      registry_.add("health.events.queue_depth_anomaly");
    } else if (probe.anomalous && value < probe.threshold * 0.5) {
      probe.anomalous = false;
      stream_.emit(now, HealthEventKind::kQueueDepthClear, "probe:" + probe.name, 0,
                   0, value, probe.threshold);
      registry_.add("health.events.queue_depth_clear");
    }
  }

  kernel_.post(kWindowInterval, [this] { window_tick(); });
}

// --- queries --------------------------------------------------------------------

std::size_t HealthMonitor::suspected_replicas() const {
  std::size_t n = 0;
  for (const auto& [pid, replica] : replicas_) {
    if (replica.suspected) ++n;
  }
  return n;
}

std::size_t HealthMonitor::suspected_links() const {
  std::size_t n = 0;
  for (const auto& [key, link] : links_) {
    if (link.suspected) ++n;
  }
  return n;
}

double HealthMonitor::max_phi() const {
  double level = 0.0;
  for (const auto& [key, link] : links_) level = std::max(level, link.last_phi);
  return level;
}

double HealthMonitor::max_burn_rate() const {
  double burn = 0.0;
  for (const auto& [name, status] : slo_status_) {
    burn = std::max(burn, status.burn_rate);
  }
  return burn;
}

bool HealthMonitor::slo_breached() const {
  for (const auto& [name, slo] : slos_) {
    if (slo.latency_breached || slo.availability_breached) return true;
  }
  return false;
}

}  // namespace vdep::monitor::health
