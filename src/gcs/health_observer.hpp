// Liveness-signal taps published by the GCS daemon.
//
// The health plane (monitor/health) wants the daemon's raw observations:
// heartbeat arrivals on the daemon mesh and local endpoint lifecycle. The
// monitor layer links against gcs — not the other way around — so the
// daemon publishes through this interface and monitor::health::HealthMonitor
// implements it. Every call site is a single nullptr-guarded branch, so an
// unobserved daemon pays one predicted-not-taken compare (the same
// discipline as the tracer's inert fast path).
#pragma once

#include <string_view>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace vdep::gcs {

class HealthObserver {
 public:
  virtual ~HealthObserver() = default;

  // A daemon heartbeat from `from` arrived at daemon `at` at time `arrival`
  // (link level, before any CPU queueing — the inter-arrival times feed
  // phi-accrual detectors). Heartbeats are beacons read after they land
  // (Daemon::poll_heartbeats), so this fires at or after `arrival`, in
  // arrival order per link.
  virtual void on_heartbeat(NodeId from, NodeId at, SimTime arrival) = 0;

  // A local process registered an endpoint with its daemon (replica boot or
  // recovery; fires once per endpoint, so several times per process).
  virtual void on_endpoint_registered(ProcessId pid, NodeId host,
                                      std::string_view name, SimTime now) = 0;

  // A local process with registered endpoints crashed (fires once per
  // process per crash, at the crash instant).
  virtual void on_endpoint_crashed(ProcessId pid, NodeId host,
                                   std::string_view name, SimTime now) = 0;
};

}  // namespace vdep::gcs
