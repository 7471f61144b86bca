// The live health plane: one harness-side monitor per testbed tying the
// pieces together (paper Sec. 2 item 1 — "monitoring various system
// metrics" — made continuous and in-band).
//
//  - Ingestion: implements gcs::HealthObserver, so attached daemons feed it
//    heartbeat arrivals (one phi-accrual detector per directed daemon link)
//    and local endpoint lifecycle (replica crash/recovery, observed by the
//    co-located daemon the way Spread notices a dead IPC connection).
//  - Cadences: every 20 ms it polls the attached daemons for the heartbeats
//    that arrived since their last read (each is reported with its arrival
//    time, so a detector sees the same inter-arrival times whenever it is
//    read), then evaluates the link detectors and the
//    per-replica suspicion gauges; every 100 ms each SLO tracker cuts a
//    window of its own metrics, then the trackers and the queue-depth
//    probes are evaluated.
//  - Output: suspicion/attainment/burn gauges published back into the same
//    registry, and a deterministic HealthEvent stream for every state
//    transition — the signal source AdaptationManager consumes and the
//    chaos detection oracle audits.
//
// Hot-path discipline: nothing here runs on the request path. The daemon's
// per-heartbeat tap is a map lookup every heartbeat interval (20ms of sim
// time) per link, paid when the heartbeat is read; an unattached daemon pays
// one nullptr compare.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gcs/daemon.hpp"
#include "gcs/health_observer.hpp"
#include "monitor/health/events.hpp"
#include "monitor/health/phi_accrual.hpp"
#include "monitor/health/slo.hpp"
#include "monitor/metrics.hpp"
#include "sim/kernel.hpp"

namespace vdep::monitor::health {

class HealthMonitor final : public gcs::HealthObserver {
 public:
  HealthMonitor(sim::Kernel& kernel, MetricsRegistry& registry);

  // Subscribes this monitor to a daemon's health taps; each detector
  // evaluation polls the daemon first.
  void attach(gcs::Daemon& daemon) {
    daemon.set_health_observer(this);
    daemons_.push_back(&daemon);
  }

  // Begins the evaluation cadences; idempotent.
  void start();
  void stop() { running_ = false; }

  // --- declarative configuration ---------------------------------------------
  void add_slo(SloSpec spec);
  // A gauge probe evaluated once per window (e.g. CPU queue depth via
  // sim::Cpu::backlog); crossing `threshold` emits kQueueDepthAnomaly,
  // falling below half of it clears.
  void add_probe(std::string name, double threshold, std::function<double()> fn);

  // --- gcs::HealthObserver ----------------------------------------------------
  void on_heartbeat(NodeId from, NodeId at, SimTime arrival) override;
  void on_endpoint_registered(ProcessId pid, NodeId host, std::string_view name,
                              SimTime now) override;
  void on_endpoint_crashed(ProcessId pid, NodeId host, std::string_view name,
                           SimTime now) override;

  // --- queries ----------------------------------------------------------------
  // Window ticks so far, one every 100 ms; each cuts one window per SLO.
  [[nodiscard]] std::uint64_t windows_cut() const { return windows_cut_; }
  [[nodiscard]] const HealthEventStream& stream() const { return stream_; }
  [[nodiscard]] HealthEventStream& stream() { return stream_; }
  [[nodiscard]] const std::vector<HealthEvent>& events() const {
    return stream_.events();
  }
  [[nodiscard]] std::size_t suspected_replicas() const;
  [[nodiscard]] std::size_t suspected_links() const;
  // Highest link suspicion as of the last detector evaluation.
  [[nodiscard]] double max_phi() const;
  [[nodiscard]] double max_burn_rate() const;
  [[nodiscard]] bool slo_breached() const;
  [[nodiscard]] const std::map<std::string, SloStatus>& slo_status() const {
    return slo_status_;
  }

 private:
  struct ReplicaState {
    std::string label;
    NodeId host;
    bool suspected = false;
  };
  struct LinkState {
    PhiAccrualDetector detector;
    double last_phi = 0.0;
    bool suspected = false;
  };
  struct SloState {
    SloTracker tracker;
    bool latency_breached = false;
    bool availability_breached = false;
  };
  struct Probe {
    std::string name;
    double threshold;
    std::function<double()> fn;
    bool anomalous = false;
  };

  void phi_tick();
  void window_tick();
  [[nodiscard]] static std::string link_label(NodeId from, NodeId at);

  sim::Kernel& kernel_;
  MetricsRegistry& registry_;
  std::uint64_t windows_cut_ = 0;
  HealthEventStream stream_;
  bool running_ = false;

  std::vector<gcs::Daemon*> daemons_;  // attached, polled each phi tick
  std::map<ProcessId, ReplicaState> replicas_;
  std::map<std::pair<NodeId, NodeId>, LinkState> links_;
  std::map<std::string, SloState> slos_;
  std::map<std::string, SloStatus> slo_status_;
  std::vector<Probe> probes_;
};

}  // namespace vdep::monitor::health
