// Statistics collectors used by the monitoring layer and the experiment
// harness: running moments, percentile samplers, and sliding-window rates.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "util/time.hpp"

namespace vdep {

// Online mean / variance / min / max (Welford). Used for latency and jitter;
// the paper reports jitter as the variability of the round-trip time, which
// we report as the standard deviation.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const RunningStats& other);
  void reset();

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores every sample (experiments are bounded, typically 10k requests as in
// the paper) and answers arbitrary percentile queries.
class Sampler {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return samples_.size(); }
  [[nodiscard]] double percentile(double p) const;  // p in [0,100]
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] const RunningStats& stats() const { return stats_; }
  // Raw samples (order unspecified); used when merging samplers.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  void merge(const Sampler& other) {
    for (double x : other.samples_) add(x);
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  RunningStats stats_;
};

// Fixed-bucket log-scale histogram for non-negative samples (latencies in
// us, sizes in bytes). Bucket boundaries are geometric — kSubBuckets per
// octave — so relative error is bounded (~9%) across twelve decades at a
// fixed, small memory cost, unlike Sampler which stores every sample.
// Percentiles interpolate nothing: they return the lower bound of the bucket
// holding the rank (clamped to the exact observed min/max), which keeps
// results deterministic and platform-independent.
class LogHistogram {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return total_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return total_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }

  // p in [0, 100]. Returns 0 with no samples.
  [[nodiscard]] double percentile(double p) const;

  void merge(const LogHistogram& other);
  void reset();

  // Bucket-wise difference `*this - earlier`, where `earlier` is a previous
  // copy of this same histogram (every bucket count monotone since then).
  // The delta's min/max are only known to bucket resolution: they are taken
  // from the edge buckets of the delta, tightened by this histogram's
  // lifetime range. Percentiles over a delta therefore stay deterministic
  // but may report bucket bounds at the extremes.
  [[nodiscard]] LogHistogram delta_since(const LogHistogram& earlier) const;

  // 16 buckets per octave; exponents cover ~[2^-32, 2^32).
  static constexpr std::size_t kSubBuckets = 16;
  static constexpr int kMinExponent = -32;
  static constexpr int kMaxExponent = 32;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;

  [[nodiscard]] static std::size_t bucket_index(double x);
  [[nodiscard]] static double bucket_lower_bound(std::size_t index);
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const {
    return counts_[index];
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Events-per-second estimator over a sliding time window. This is the
// "request arrival rate observed at the server" signal that drives the
// adaptive-replication policy of Fig. 6.
class SlidingRate {
 public:
  explicit SlidingRate(SimTime window);

  void record(SimTime now);           // one event at `now`
  [[nodiscard]] double rate(SimTime now);  // events/sec over the window ending at `now`
  [[nodiscard]] SimTime window() const { return window_; }

 private:
  void evict(SimTime now);

  SimTime window_;
  std::deque<SimTime> events_;
};

// Exponentially-weighted moving average with a configurable smoothing factor;
// used for smoothed latency signals in contracts.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x);
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool has_value() const { return initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace vdep
