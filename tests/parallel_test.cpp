// Trial-fleet tests.
//
// run_ordered's contract: every index runs exactly once, commits arrive on
// the calling thread in index order at any worker count, and a stop either
// skips the later runs (serial) or drops their results (parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chaos/fleet.hpp"

namespace vdep::chaos {
namespace {

TEST(RunOrdered, RunsEveryIndexOnceAndCommitsInOrder) {
  for (const int workers : {1, 2, 8}) {
    for (const int n : {0, 1, 3, 257}) {
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
      std::vector<int> committed;
      const auto caller = std::this_thread::get_id();
      run_ordered(
          n, workers,
          [&runs](int i) {
            runs[static_cast<std::size_t>(i)].fetch_add(1);
            return i * 7;
          },
          [&](int i, int result) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_EQ(result, i * 7);
            committed.push_back(i);
            return true;
          });
      ASSERT_EQ(committed.size(), static_cast<std::size_t>(n))
          << "workers " << workers << " n " << n;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(committed[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "workers " << workers << " index " << i;
      }
    }
  }
}

TEST(RunOrdered, StopSkipsLaterRunsSeriallyAndDropsThemInParallel) {
  for (const int workers : {1, 4}) {
    std::atomic<int> runs{0};
    std::vector<int> committed;
    run_ordered(
        64, workers,
        [&runs](int i) {
          runs.fetch_add(1);
          return i;
        },
        [&committed](int i, int) {
          committed.push_back(i);
          return i < 2;  // stop after committing index 2
        });
    EXPECT_EQ(committed, (std::vector<int>{0, 1, 2})) << "workers " << workers;
    EXPECT_EQ(runs.load(), workers == 1 ? 3 : 64) << "workers " << workers;
  }
}

TEST(RunOrdered, ExceptionFromRunReachesTheCallerInIndexOrder) {
  for (const int workers : {1, 4}) {
    std::vector<int> committed;
    EXPECT_THROW(run_ordered(
                     16, workers,
                     [](int i) {
                       if (i == 5) throw std::runtime_error("trial 5");
                       return i;
                     },
                     [&committed](int i, int) {
                       committed.push_back(i);
                       return true;
                     }),
                 std::runtime_error);
    EXPECT_EQ(committed, (std::vector<int>{0, 1, 2, 3, 4})) << "workers " << workers;
  }
}

TEST(RunOrdered, CallerRunsTrialsWhileItsNextResultIsPending) {
  // Worker-run indices block until the calling thread has run one itself,
  // so this finishes only if the caller claims work while it waits.
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  int committed = 0;
  run_ordered(
      3, 2,
      [&](int) {
        if (std::this_thread::get_id() == caller) {
          caller_ran.store(true);
        } else {
          while (!caller_ran.load()) std::this_thread::yield();
        }
        return 0;
      },
      [&committed](int, int) {
        ++committed;
        return true;
      });
  EXPECT_TRUE(caller_ran.load());
  EXPECT_EQ(committed, 3);
}

}  // namespace
}  // namespace vdep::chaos
