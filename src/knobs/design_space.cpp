#include "knobs/design_space.hpp"

#include <algorithm>
#include <set>

namespace vdep::knobs {

void DesignSpaceMap::add(DesignPoint point) { points_.push_back(std::move(point)); }

std::optional<DesignPoint> DesignSpaceMap::find(const Configuration& config,
                                                int clients) const {
  for (const auto& p : points_) {
    if (p.config == config && p.clients == clients) return p;
  }
  return std::nullopt;
}

std::vector<DesignPoint> DesignSpaceMap::at_clients(int clients) const {
  std::vector<DesignPoint> out;
  for (const auto& p : points_) {
    if (p.clients == clients) out.push_back(p);
  }
  return out;
}

std::vector<int> DesignSpaceMap::client_counts() const {
  std::set<int> uniq;
  for (const auto& p : points_) uniq.insert(p.clients);
  return {uniq.begin(), uniq.end()};
}

std::vector<Configuration> DesignSpaceMap::configurations() const {
  std::set<Configuration> uniq;
  for (const auto& p : points_) uniq.insert(p.config);
  return {uniq.begin(), uniq.end()};
}

std::vector<DesignPoint> DesignSpaceMap::satisfying(double max_latency_us,
                                                    double max_bandwidth_mbps) const {
  std::vector<DesignPoint> out;
  for (const auto& p : points_) {
    if (p.latency_us <= max_latency_us && p.bandwidth_mbps <= max_bandwidth_mbps) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<NormalizedPoint> DesignSpaceMap::normalized() const {
  double max_ft = 0.0;
  double min_latency = 0.0;
  double max_bw = 0.0;
  bool first = true;
  for (const auto& p : points_) {
    max_ft = std::max(max_ft, static_cast<double>(p.faults_tolerated));
    max_bw = std::max(max_bw, p.bandwidth_mbps);
    min_latency = first ? p.latency_us : std::min(min_latency, p.latency_us);
    first = false;
  }

  std::vector<NormalizedPoint> out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    NormalizedPoint n;
    n.config = p.config;
    n.clients = p.clients;
    n.fault_tolerance =
        max_ft > 0 ? static_cast<double>(p.faults_tolerated) / max_ft : 0.0;
    n.performance = p.latency_us > 0 ? min_latency / p.latency_us : 0.0;
    n.resources = max_bw > 0 ? p.bandwidth_mbps / max_bw : 0.0;
    out.push_back(n);
  }
  return out;
}

}  // namespace vdep::knobs
