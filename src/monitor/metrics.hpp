// Named metric registry — the "monitoring various system metrics (e.g.,
// latency, jitter, CPU load)" element of the versatile-dependability
// framework (paper Sec. 2, item 1).
//
// Components publish counters, gauges and distributions under stable names;
// the adaptation layer and the experiment harness read them without knowing
// the producers. Each distribution keeps running moments (mean/stddev) plus
// a fixed-bucket log-scale histogram, so percentile queries (p50/p95/p99)
// cost O(buckets) and no sample storage. Everything is
// simulation-deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "util/stats.hpp"

namespace vdep::monitor {

class MetricsRegistry {
 public:
  struct Distribution {
    RunningStats stats;
    LogHistogram histogram;
  };

  // Monotone counters.
  void add(const std::string& name, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  // Last-value gauges.
  void set_gauge(const std::string& name, double value);
  [[nodiscard]] std::optional<double> gauge(const std::string& name) const;

  // Sample distributions (latency etc.).
  void observe(const std::string& name, double value);
  [[nodiscard]] const RunningStats* distribution(const std::string& name) const;
  [[nodiscard]] const LogHistogram* histogram(const std::string& name) const;
  // Percentile query against the named distribution's histogram; nullopt if
  // the name is unknown.
  [[nodiscard]] std::optional<double> percentile(const std::string& name,
                                                 double p) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, Distribution>& distributions() const {
    return distributions_;
  }

  void reset();

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Distribution> distributions_;
};

}  // namespace vdep::monitor
