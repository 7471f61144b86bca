// Work-stealing deque and pool tests.
//
// The StealPool tests pin the pool's liveness contract: every submitted task
// runs exactly once, from outside threads and from nested fan-outs alike.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "sim/parallel/steal_deque.hpp"
#include "sim/parallel/steal_pool.hpp"

namespace vdep::sim::parallel {
namespace {

// --- StealDeque (single-threaded semantics) --------------------------------

TEST(StealDeque, OwnerPushPopIsLifo) {
  StealDeque<int> dq;
  int a = 1, b = 2, c = 3;
  ASSERT_TRUE(dq.push_bottom(&a));
  ASSERT_TRUE(dq.push_bottom(&b));
  ASSERT_TRUE(dq.push_bottom(&c));
  EXPECT_EQ(dq.pop_bottom(), &c);
  EXPECT_EQ(dq.pop_bottom(), &b);
  EXPECT_EQ(dq.pop_bottom(), &a);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
}

TEST(StealDeque, StealTakesOldestFirst) {
  StealDeque<int> dq;
  int a = 1, b = 2;
  ASSERT_TRUE(dq.push_bottom(&a));
  ASSERT_TRUE(dq.push_bottom(&b));
  EXPECT_EQ(dq.steal_top(), &a);  // FIFO from the top
  EXPECT_EQ(dq.pop_bottom(), &b);
  EXPECT_EQ(dq.steal_top(), nullptr);
}

TEST(StealDeque, RejectsPushWhenFull) {
  StealDeque<int> dq;
  int x = 0;
  std::size_t pushed = 0;
  while (dq.push_bottom(&x)) ++pushed;
  EXPECT_EQ(pushed, dq.capacity());
  EXPECT_FALSE(dq.push_bottom(&x));
  EXPECT_EQ(dq.pop_bottom(), &x);
  EXPECT_TRUE(dq.push_bottom(&x));  // slot freed
}

// --- StealPool --------------------------------------------------------------

TEST(StealPool, RunsEverySubmittedTaskExactlyOnce) {
  constexpr int kTasks = 4096;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  {
    StealPool pool(4);
    TaskGroup group;
    for (int i = 0; i < kTasks; ++i) {
      pool.submit(group, [&runs, i] { runs[static_cast<std::size_t>(i)].fetch_add(1); });
    }
    group.wait(pool);
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(StealPool, NestedFanOutFromWorkerDoesNotDeadlock) {
  // Each outer task fans out an inner batch and waits on it from inside the
  // pool — the classic helping-wait deadlock shape (parallel shrinker inside
  // a campaign worker). With 2 workers and 8 outer tasks this deadlocks
  // unless wait() helps.
  StealPool pool(2);
  TaskGroup outer;
  std::atomic<int> inner_runs{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit(outer, [&pool, &inner_runs] {
      TaskGroup inner;
      for (int j = 0; j < 16; ++j) {
        pool.submit(inner, [&inner_runs] { inner_runs.fetch_add(1); });
      }
      inner.wait(pool);
    });
  }
  outer.wait(pool);
  EXPECT_EQ(inner_runs.load(), 8 * 16);
}

TEST(StealPool, GroupIsReusableAcrossWaves) {
  StealPool pool(2);
  TaskGroup group;
  std::atomic<int> runs{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 32; ++i) pool.submit(group, [&runs] { runs.fetch_add(1); });
    group.wait(pool);
    EXPECT_EQ(group.pending(), 0u);
  }
  EXPECT_EQ(runs.load(), 10 * 32);
}

TEST(StealPool, TryRunOneDrainsInjector) {
  StealPool pool(1);
  // Park the worker in a blocking task so the tasks injected afterwards stay
  // available to the caller; wait until the worker has actually taken it, or
  // this thread's try_run_one could grab the blocker and spin forever.
  std::atomic<bool> grabbed{false};
  std::atomic<bool> release{false};
  TaskGroup group;
  pool.submit(group, [&grabbed, &release] {
    grabbed.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!grabbed.load(std::memory_order_acquire)) std::this_thread::yield();

  std::atomic<int> runs{0};
  for (int i = 0; i < 4; ++i) pool.submit(group, [&runs] { runs.fetch_add(1); });
  while (runs.load() < 4) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  group.wait(pool);
  EXPECT_EQ(runs.load(), 4);
}

}  // namespace
}  // namespace vdep::sim::parallel
