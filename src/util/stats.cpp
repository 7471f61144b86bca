#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace vdep {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * other.mean_) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

void RunningStats::reset() { *this = RunningStats{}; }

void Sampler::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
  stats_.add(x);
}

double Sampler::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  VDEP_ASSERT(p >= 0.0 && p <= 100.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  // Nearest-rank with linear interpolation.
  const double idx = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::size_t LogHistogram::bucket_index(double x) {
  if (!(x > 0.0)) return 0;  // zero, negatives and NaN land in the floor bucket
  int exp = 0;
  // frexp: x = mantissa * 2^exp with mantissa in [0.5, 1). IEEE-exact, so the
  // bucketing is identical on every platform (no transcendental functions).
  const double mantissa = std::frexp(x, &exp);
  if (exp <= kMinExponent) return 0;
  if (exp > kMaxExponent) return kBuckets - 1;
  // Sub-bucket within the octave [2^(exp-1), 2^exp): mantissa*2 is in [1,2).
  const auto sub = static_cast<std::size_t>((mantissa * 2.0 - 1.0) *
                                            static_cast<double>(kSubBuckets));
  return 1 +
         static_cast<std::size_t>(exp - 1 - kMinExponent) * kSubBuckets +
         std::min(sub, kSubBuckets - 1);
}

double LogHistogram::bucket_lower_bound(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kBuckets - 1) return std::ldexp(1.0, kMaxExponent);
  const std::size_t i = index - 1;
  const int exp = kMinExponent + static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<double>(i % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), exp);
}

void LogHistogram::add(double x) {
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++total_;
  sum_ += x;
  ++counts_[bucket_index(x)];
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  VDEP_ASSERT(p >= 0.0 && p <= 100.0);
  // Nearest-rank with p=100 pinned to the true maximum (the rank-N sample is
  // the max, but a bucket lower bound would under-report it).
  if (p >= 100.0) return max_;
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil((p / 100.0) * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // The bucket's lower bound, clamped to the observed range so that
      // percentile(0) == min() and percentile(100) <= max().
      return std::clamp(bucket_lower_bound(i), min_, max_);
    }
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
}

void LogHistogram::reset() { *this = LogHistogram{}; }

LogHistogram LogHistogram::delta_since(const LogHistogram& earlier) const {
  VDEP_ASSERT_MSG(total_ >= earlier.total_,
                  "delta_since expects an earlier copy of the same histogram");
  LogHistogram out;
  std::size_t first = kBuckets;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    VDEP_ASSERT(counts_[i] >= earlier.counts_[i]);
    const std::uint64_t d = counts_[i] - earlier.counts_[i];
    out.counts_[i] = d;
    if (d > 0) {
      if (first == kBuckets) first = i;
      last = i;
    }
  }
  out.total_ = total_ - earlier.total_;
  out.sum_ = sum_ - earlier.sum_;
  if (out.total_ > 0) {
    // Lower bound of the first occupied bucket is a valid lower bound on the
    // delta's samples; the lifetime min cannot exceed the delta min, so the
    // tighter of the two stands in for it (and likewise for max).
    out.min_ = std::max(bucket_lower_bound(first), min_);
    const double upper =
        last + 1 < kBuckets ? bucket_lower_bound(last + 1) : max_;
    out.max_ = std::max(out.min_, std::min(upper, max_));
  }
  return out;
}

SlidingRate::SlidingRate(SimTime window) : window_(window) {
  VDEP_ASSERT(window > kTimeZero);
}

void SlidingRate::record(SimTime now) {
  VDEP_ASSERT_MSG(events_.empty() || now >= events_.back(),
                  "events must be recorded in time order");
  events_.push_back(now);
  evict(now);
}

double SlidingRate::rate(SimTime now) {
  evict(now);
  if (events_.empty()) return 0.0;
  return static_cast<double>(events_.size()) / to_sec(window_);
}

void SlidingRate::evict(SimTime now) {
  const SimTime cutoff = now - window_;
  while (!events_.empty() && events_.front() <= cutoff) events_.pop_front();
}

void Ewma::add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

}  // namespace vdep
