// The scalability knob (paper Sec. 4.3, Fig. 8, Table 2).
//
// Given the profiled design-space map and the operator's requirements, the
// knob synthesizes a *policy*: for each number of clients, the server
// configuration {replication style, #replicas} chosen by the paper's 4-step
// rule —
//   1. average latency must not exceed the limit,
//   2. bandwidth usage must not exceed the limit,
//   3. among survivors, maximize the number of faults tolerated,
//   4. break remaining ties with the minimum cost function.
// When no configuration satisfies the requirements for some client count,
// the policy records that count as infeasible — "the system notifies the
// operators that the tuning policy can no longer be honored".
#pragma once

#include <optional>

#include "knobs/cost.hpp"
#include "knobs/design_space.hpp"

namespace vdep::knobs {

struct ScalabilityRequirements {
  double max_latency_us = 7000.0;   // requirement 1
  double max_bandwidth_mbps = 3.0;  // requirement 2
  CostParams cost;                  // requirement 4 (p = 0.5 in the paper)
};

// One row of Table 2.
struct PolicyEntry {
  int clients = 0;
  Configuration config;
  double latency_us = 0.0;
  double bandwidth_mbps = 0.0;
  int faults_tolerated = 0;
  double cost = 0.0;
};

struct ScalabilityPolicy {
  ScalabilityRequirements requirements;
  std::vector<PolicyEntry> entries;       // feasible client counts, ascending
  std::vector<int> infeasible_clients;    // operator notification needed

  [[nodiscard]] std::optional<PolicyEntry> for_clients(int clients) const;
  // Highest client count the policy can serve.
  [[nodiscard]] int max_supported_clients() const;
};

// Synthesizes the policy from profiled data (the thick line of Fig. 8).
[[nodiscard]] ScalabilityPolicy synthesize_scalability_policy(
    const DesignSpaceMap& map, const ScalabilityRequirements& requirements);

}  // namespace vdep::knobs
