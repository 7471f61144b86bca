// The dependability design space (paper Figs. 1, 7, 9).
//
// A DesignPoint is one measured configuration: {replication style, #replicas,
// #clients} with its observed latency, jitter, bandwidth and the number of
// crash faults it tolerates. DesignSpaceMap stores the grid produced by
// profiling ("the first step in implementing a scalability knob is to gather
// enough data about the system's behavior") and answers the queries the
// high-level knobs need: constraint filtering, per-client-count selection,
// and the normalized {fault-tolerance x performance x resources} view of
// Fig. 9.
#pragma once

#include <optional>
#include <vector>

#include "replication/types.hpp"

namespace vdep::knobs {

struct Configuration {
  replication::ReplicationStyle style = replication::ReplicationStyle::kActive;
  int replicas = 1;

  friend constexpr auto operator<=>(const Configuration&, const Configuration&) = default;

  // Paper notation: A(3), P(2), ...
  [[nodiscard]] std::string code() const {
    return replication::style_code(style) + " (" + std::to_string(replicas) + ")";
  }
};

struct DesignPoint {
  Configuration config;
  int clients = 1;
  double latency_us = 0.0;
  double jitter_us = 0.0;       // stddev of the round-trip time
  double bandwidth_mbps = 0.0;
  double throughput_rps = 0.0;
  int faults_tolerated = 0;     // replicas - 1 under crash faults
};

// Fig. 9 axes: every metric normalized to its maximum over the data set.
struct NormalizedPoint {
  Configuration config;
  int clients = 1;
  double fault_tolerance = 0.0;  // faults tolerated / max
  double performance = 0.0;      // min latency / latency (higher is better)
  double resources = 0.0;        // bandwidth / max
};

class DesignSpaceMap {
 public:
  void add(DesignPoint point);

  [[nodiscard]] const std::vector<DesignPoint>& points() const { return points_; }
  [[nodiscard]] std::optional<DesignPoint> find(const Configuration& config,
                                                int clients) const;
  // All measured points for a given client count.
  [[nodiscard]] std::vector<DesignPoint> at_clients(int clients) const;
  [[nodiscard]] std::vector<int> client_counts() const;
  [[nodiscard]] std::vector<Configuration> configurations() const;

  // Points satisfying hard latency/bandwidth limits (the vertical planes in
  // Fig. 8).
  [[nodiscard]] std::vector<DesignPoint> satisfying(double max_latency_us,
                                                    double max_bandwidth_mbps) const;

  // Fig. 9: the whole map normalized to the unit cube.
  [[nodiscard]] std::vector<NormalizedPoint> normalized() const;

 private:
  std::vector<DesignPoint> points_;
};

}  // namespace vdep::knobs
