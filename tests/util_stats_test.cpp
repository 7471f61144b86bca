#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace vdep {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.7;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Sampler, Percentiles) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Sampler, MergeCombinesSamples) {
  Sampler a;
  Sampler b;
  a.add(1);
  a.add(2);
  b.add(3);
  b.add(4);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.percentile(100), 4.0);
}

TEST(LogHistogram, CountsMomentsAndRange) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
}

TEST(LogHistogram, PercentileNearestRankWithinOneSubBucket) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  // Bucket lower bounds are exact to within one sub-bucket (2^(1/16) ~ 4.4%).
  EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(h.percentile(95), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.05);
  // Extremes clamp to the observed range exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(LogHistogram, PointMassIsExact) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(1), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
}

TEST(LogHistogram, BucketIndexIsMonotone) {
  double prev = 0.0;
  std::size_t prev_index = 0;
  for (double v = 1e-6; v < 1e6; v *= 1.3) {
    const std::size_t index = LogHistogram::bucket_index(v);
    EXPECT_GE(index, prev_index) << "regressed at " << v << " from " << prev;
    EXPECT_LE(LogHistogram::bucket_lower_bound(index), v * (1 + 1e-12));
    prev = v;
    prev_index = index;
  }
}

TEST(LogHistogram, MergeMatchesCombined) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  for (int i = 1; i <= 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 51; i <= 100; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.percentile(50), all.percentile(50));
  a.reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(LogHistogram, MergeEmptyEdges) {
  LogHistogram empty;
  LogHistogram other;
  empty.merge(other);  // empty + empty stays empty
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);

  LogHistogram h;
  for (double v : {3.0, 7.0, 11.0}) h.add(v);
  h.merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 11.0);

  empty.merge(h);  // empty absorbs the other side's exact range
  EXPECT_EQ(empty.count(), 3u);
  EXPECT_DOUBLE_EQ(empty.min(), 3.0);
  EXPECT_DOUBLE_EQ(empty.max(), 11.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), h.percentile(50));
}

TEST(LogHistogram, SingleBucketMergeStaysExact) {
  // Point masses occupy one bucket each; the merged histogram must keep
  // their exact values at the extremes (min/max are tracked exactly).
  LogHistogram a;
  LogHistogram b;
  for (int i = 0; i < 10; ++i) a.add(42.0);
  for (int i = 0; i < 10; ++i) b.add(42.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_DOUBLE_EQ(a.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(a.percentile(100), 42.0);
}

TEST(LogHistogram, ExactP100AfterMerge) {
  LogHistogram low;
  LogHistogram high;
  for (int i = 1; i <= 100; ++i) low.add(static_cast<double>(i));
  high.add(54321.0);
  low.merge(high);
  EXPECT_DOUBLE_EQ(low.percentile(100), 54321.0);
  EXPECT_DOUBLE_EQ(low.percentile(0), 1.0);
}

TEST(LogHistogram, DeltaSinceIsolatesNewSamples) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  const LogHistogram earlier = h;
  for (int i = 0; i < 50; ++i) h.add(1000.0);

  const LogHistogram delta = h.delta_since(earlier);
  EXPECT_EQ(delta.count(), 50u);
  // The delta is a point mass at 1000 up to bucket resolution, tightened by
  // the lifetime max (exactly 1000).
  EXPECT_NEAR(delta.percentile(50), 1000.0, 1000.0 * 0.05);
  EXPECT_DOUBLE_EQ(delta.max(), 1000.0);
  EXPECT_GE(delta.min(), 1000.0 / 1.05);

  // Nothing new since the copy: the delta is empty.
  const LogHistogram none = h.delta_since(h);
  EXPECT_EQ(none.count(), 0u);
}

TEST(SlidingRate, WindowedRate) {
  SlidingRate rate(msec(100));
  for (int i = 0; i < 10; ++i) rate.record(msec(i * 10));
  // 10 events in the 100 ms window ending at 95 ms.
  EXPECT_NEAR(rate.rate(msec(95)), 100.0, 1.0);
  // Much later, everything evicted.
  EXPECT_DOUBLE_EQ(rate.rate(msec(500)), 0.0);
}

TEST(SlidingRate, EvictsOldEvents) {
  SlidingRate rate(msec(50));
  rate.record(msec(0));
  rate.record(msec(10));
  rate.record(msec(60));
  // Window (10, 60]: events at 60 only? 10 <= 60-50 evicted, 0 evicted.
  EXPECT_NEAR(rate.rate(msec(60)), 20.0, 0.1);
}

TEST(Ewma, SmoothsTowardSignal) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 17.5);
}

}  // namespace
}  // namespace vdep
