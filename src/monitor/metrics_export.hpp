// Metrics-snapshot JSON exporter: MetricsRegistry -> stable-key JSON,
// emitted next to the Chrome-trace output (see obs/export.hpp).
//
// Keys appear in sorted (std::map) order and numbers render with fixed
// precision, so the same registry state always produces the same bytes.
#pragma once

#include <string>

#include "monitor/metrics.hpp"

namespace vdep::monitor {

[[nodiscard]] std::string to_metrics_json(const MetricsRegistry& registry);

}  // namespace vdep::monitor
