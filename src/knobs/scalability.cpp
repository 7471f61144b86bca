#include "knobs/scalability.hpp"

#include <algorithm>

namespace vdep::knobs {

std::optional<PolicyEntry> ScalabilityPolicy::for_clients(int clients) const {
  for (const auto& e : entries) {
    if (e.clients == clients) return e;
  }
  return std::nullopt;
}

int ScalabilityPolicy::max_supported_clients() const {
  int best = 0;
  for (const auto& e : entries) best = std::max(best, e.clients);
  return best;
}

ScalabilityPolicy synthesize_scalability_policy(
    const DesignSpaceMap& map, const ScalabilityRequirements& requirements) {
  ScalabilityPolicy policy;
  policy.requirements = requirements;

  for (int clients : map.client_counts()) {
    // Steps 1-2: hard latency and bandwidth planes.
    std::vector<DesignPoint> candidates;
    for (const auto& p : map.at_clients(clients)) {
      if (p.latency_us <= requirements.max_latency_us &&
          p.bandwidth_mbps <= requirements.max_bandwidth_mbps) {
        candidates.push_back(p);
      }
    }
    if (candidates.empty()) {
      policy.infeasible_clients.push_back(clients);
      continue;
    }

    // Step 3: best fault-tolerance possible.
    int best_ft = 0;
    for (const auto& p : candidates) best_ft = std::max(best_ft, p.faults_tolerated);
    std::erase_if(candidates,
                  [best_ft](const DesignPoint& p) { return p.faults_tolerated < best_ft; });

    // Step 4: minimum cost breaks the remaining tie.
    const DesignPoint* chosen = &candidates.front();
    double chosen_cost =
        configuration_cost(chosen->latency_us, chosen->bandwidth_mbps, requirements.cost);
    for (const auto& p : candidates) {
      const double c = configuration_cost(p.latency_us, p.bandwidth_mbps, requirements.cost);
      if (c < chosen_cost) {
        chosen = &p;
        chosen_cost = c;
      }
    }

    policy.entries.push_back(PolicyEntry{clients, chosen->config, chosen->latency_us,
                                         chosen->bandwidth_mbps, chosen->faults_tolerated,
                                         chosen_cost});
  }

  std::sort(policy.entries.begin(), policy.entries.end(),
            [](const PolicyEntry& a, const PolicyEntry& b) { return a.clients < b.clients; });
  return policy;
}

}  // namespace vdep::knobs
