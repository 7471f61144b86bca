// The configuration cost function of paper Sec. 4.3:
//
//     Cost_i = p * Latency_i / L_max  +  (1 - p) * Bandwidth_i / B_max
//
// used to break ties among configurations that already satisfy the hard
// latency/bandwidth/fault-tolerance requirements. The paper uses p = 0.5
// (latency and bandwidth weighted equally) with L_max = 7000 us and
// B_max = 3 MB/s, and notes the rule is a heuristic other developers may
// replace.
#pragma once

namespace vdep::knobs {

struct CostParams {
  double p = 0.5;                  // latency weight; (1-p) weights bandwidth
  double latency_limit_us = 7000;  // requirement 1
  double bandwidth_limit_mbps = 3; // requirement 2
};

[[nodiscard]] double configuration_cost(double latency_us, double bandwidth_mbps,
                                        const CostParams& params = {});

}  // namespace vdep::knobs
