#include "monitor/metrics_export.hpp"

#include <cstdio>

namespace vdep::monitor {

namespace {

void append_number(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out += buf;
}

void append_key(std::string& out, const std::string& name) {
  out += "    \"";
  out += name;  // metric names are identifier-like; no escaping needed
  out += "\": ";
}

}  // namespace

std::string to_metrics_json(const MetricsRegistry& registry) {
  std::string out = "{\n";

  out += "  \"counters\": {\n";
  bool first = true;
  for (const auto& [name, value] : registry.counters()) {
    if (!first) out += ",\n";
    first = false;
    append_key(out, name);
    out += std::to_string(value);
  }
  out += "\n  },\n";

  out += "  \"gauges\": {\n";
  first = true;
  for (const auto& [name, value] : registry.gauges()) {
    if (!first) out += ",\n";
    first = false;
    append_key(out, name);
    append_number(out, value);
  }
  out += "\n  },\n";

  out += "  \"distributions\": {\n";
  first = true;
  for (const auto& [name, dist] : registry.distributions()) {
    if (!first) out += ",\n";
    first = false;
    append_key(out, name);
    out += "{\"count\": " + std::to_string(dist.stats.count());
    out += ", \"mean\": ";
    append_number(out, dist.stats.mean());
    out += ", \"p50\": ";
    append_number(out, dist.histogram.percentile(50.0));
    out += ", \"p95\": ";
    append_number(out, dist.histogram.percentile(95.0));
    out += ", \"p99\": ";
    append_number(out, dist.histogram.percentile(99.0));
    out += ", \"max\": ";
    append_number(out, dist.stats.max());
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace vdep::monitor
