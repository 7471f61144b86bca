#include "knobs/cost.hpp"

#include "util/assert.hpp"

namespace vdep::knobs {

double configuration_cost(double latency_us, double bandwidth_mbps,
                          const CostParams& params) {
  VDEP_ASSERT(params.latency_limit_us > 0 && params.bandwidth_limit_mbps > 0);
  VDEP_ASSERT(params.p >= 0.0 && params.p <= 1.0);
  return params.p * latency_us / params.latency_limit_us +
         (1.0 - params.p) * bandwidth_mbps / params.bandwidth_limit_mbps;
}

}  // namespace vdep::knobs
