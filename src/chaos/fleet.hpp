// The trial fleet: runs independent, index-addressed jobs on worker threads
// and hands their results back in index order.
//
// Every chaos trial and every shrinker probe builds its own isolated
// sim::Kernel and is reproducible from its index alone, so a fleet needs no
// task graph: threads claim indices in increasing order from one atomic
// counter, park each result in its slot, and the calling thread commits the
// slots in index order as they fill. Whatever `commit` folds the results
// into therefore sees the serial sequence at any worker count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace vdep::chaos {

// Runs `run(i)` for every i in [0, n) and `commit(i, result)` on the calling
// thread in index order; `commit` returns false to stop. With workers <= 1
// the runs happen lazily in order on the calling thread, so a stop skips
// every later run. With more workers, `workers` threads plus the calling
// thread (while its next result is not ready) run every index, and results
// after a stop are dropped. `run` must be safe to call concurrently; an
// exception it throws reaches the caller in that index's place in the order.
template <typename Run, typename Commit>
void run_ordered(int n, int workers, const Run& run, Commit&& commit) {
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) {
      if (!commit(i, run(i))) return;
    }
    return;
  }

  struct Slot {
    std::optional<std::invoke_result_t<const Run&, int>> result;
    std::exception_ptr error;
    std::atomic<bool> ready{false};
  };
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  // Claims the lowest unclaimed index and runs it; false once none is left.
  auto claim = [&] {
    const int i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return false;
    Slot& slot = slots[static_cast<std::size_t>(i)];
    try {
      slot.result.emplace(run(i));
    } catch (...) {
      slot.error = std::current_exception();
    }
    slot.ready.store(true, std::memory_order_release);
    return true;
  };

  // Declared after the slots, so the threads are joined before the slots
  // are destroyed, on every way out of this scope.
  std::vector<std::jthread> threads;
  for (int w = 0; w < workers && w < n; ++w) {
    threads.emplace_back([&claim] { while (claim()) {} });
  }

  bool live = true;
  for (int i = 0; i < n; ++i) {
    Slot& slot = slots[static_cast<std::size_t>(i)];
    while (!slot.ready.load(std::memory_order_acquire)) {
      // Help while the next result is pending; once every index is claimed
      // the rest are mid-run on workers, so back off briefly.
      if (!claim()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (live) {
      if (slot.error) std::rethrow_exception(slot.error);
      live = commit(i, std::move(*slot.result));
    }
    slot.result.reset();
  }
}

}  // namespace vdep::chaos
