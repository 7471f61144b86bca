#include "monitor/metrics.hpp"

namespace vdep::monitor {

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

std::optional<double> MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  Distribution& d = distributions_[name];
  d.stats.add(value);
  d.histogram.add(value);
}

const RunningStats* MetricsRegistry::distribution(const std::string& name) const {
  auto it = distributions_.find(name);
  return it == distributions_.end() ? nullptr : &it->second.stats;
}

const LogHistogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = distributions_.find(name);
  return it == distributions_.end() ? nullptr : &it->second.histogram;
}

std::optional<double> MetricsRegistry::percentile(const std::string& name,
                                                  double p) const {
  const LogHistogram* h = histogram(name);
  if (h == nullptr) return std::nullopt;
  return h->percentile(p);
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  distributions_.clear();
}

}  // namespace vdep::monitor
