// The identically-replicated system-state object (paper Sec. 3.1,
// "Replicated State").
//
// Every participating replicator instance periodically publishes its local
// observations (CPU load, request rate, arbitrary named metrics) into a
// dedicated monitor group using SAFE delivery. Because all members receive
// the same updates in the same total order, each holds an identical map of
// the whole system's condition — so adaptation decisions computed from it by
// a deterministic algorithm agree everywhere without extra rounds. This is
// MEAD's decentralized resource-monitoring infrastructure in miniature.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "gcs/endpoint.hpp"

namespace vdep::monitor {

struct StateEntry {
  ProcessId reporter;
  SimTime reported_at = kTimeZero;
  double cpu_load = 0.0;
  double request_rate = 0.0;
  std::map<std::string, double> extra;

  [[nodiscard]] Payload encode() const;
  static StateEntry decode(std::span<const std::uint8_t> raw);
  template <typename IO>
  friend void wire_fields(IO& io, StateEntry& m) {
    io(m.reporter, m.reported_at, m.cpu_load, m.request_rate);
    io.seq(m.extra, 12);  // empty key + value
  }
};

class ReplicatedStateObject {
 public:
  // Collect callback gathers this process's local observations at publish
  // time. The monitor group is distinct from the application group.
  using CollectFn = std::function<StateEntry()>;

  ReplicatedStateObject(gcs::Daemon& daemon, sim::Process& process, GroupId monitor_group,
                        CollectFn collect, SimTime publish_interval = msec(100));

  void start();

  // The agreed view of the whole system (identical at every member between
  // the same two deliveries).
  [[nodiscard]] const std::map<ProcessId, StateEntry>& entries() const {
    return entries_;
  }
  // Deterministic aggregates over the agreed state.
  [[nodiscard]] double aggregate_request_rate() const;
  [[nodiscard]] double max_cpu_load() const;

 private:
  void publish();

  gcs::Daemon& daemon_;
  sim::Process& process_;
  GroupId group_;
  CollectFn collect_;
  SimTime interval_;
  std::unique_ptr<gcs::Endpoint> endpoint_;
  std::optional<gcs::View> view_;
  std::map<ProcessId, StateEntry> entries_;
};

}  // namespace vdep::monitor
