#include <gtest/gtest.h>

#include "gcs/vector_clock.hpp"

namespace vdep::gcs {
namespace {

const ProcessId kA{1};
const ProcessId kB{2};
const ProcessId kC{3};

TEST(VectorClock, TickIncrements) {
  VectorClock vc;
  EXPECT_EQ(vc.get(kA), 0u);
  EXPECT_EQ(vc.tick(kA), 1u);
  EXPECT_EQ(vc.tick(kA), 2u);
  EXPECT_EQ(vc.get(kA), 2u);
  EXPECT_EQ(vc.get(kB), 0u);
}

TEST(VectorClock, MergeTakesComponentwiseMax) {
  VectorClock a;
  VectorClock b;
  a.set(kA, 5);
  a.set(kB, 1);
  b.set(kA, 2);
  b.set(kB, 7);
  b.set(kC, 1);
  a.merge(b);
  EXPECT_EQ(a.get(kA), 5u);
  EXPECT_EQ(a.get(kB), 7u);
  EXPECT_EQ(a.get(kC), 1u);
}

TEST(VectorClock, HappensBeforeStrict) {
  VectorClock a;
  VectorClock b;
  a.set(kA, 1);
  b.set(kA, 2);
  EXPECT_TRUE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
  EXPECT_FALSE(a.happens_before(a));  // irreflexive
}

TEST(VectorClock, ConcurrencyDetected) {
  VectorClock a;
  VectorClock b;
  a.set(kA, 1);
  b.set(kB, 1);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_TRUE(b.concurrent_with(a));
  EXPECT_FALSE(a.happens_before(b));
}

TEST(VectorClock, CausalChainThroughMerge) {
  VectorClock a;
  a.tick(kA);        // A: send
  VectorClock b = a; // B receives
  b.merge(a);
  b.tick(kB);        // B: send
  EXPECT_TRUE(a.happens_before(b));
}

TEST(VectorClock, ZeroComponentsIgnored) {
  VectorClock a;
  a.set(kA, 0);  // no-op
  VectorClock empty;
  EXPECT_EQ(a, empty);
}

TEST(VectorClock, EqualClocksNeitherBeforeNorConcurrent) {
  VectorClock a;
  a.set(kA, 2);
  VectorClock b = a;
  EXPECT_FALSE(a.happens_before(b));
  EXPECT_FALSE(a.concurrent_with(b));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vdep::gcs
