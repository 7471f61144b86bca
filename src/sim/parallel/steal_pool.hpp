// Work-stealing thread pool for the parallel simulation tiers.
//
// Shape: one Chase-Lev deque per worker (see steal_deque.hpp) plus a
// mutex-guarded injector queue for submissions from outside the pool. A
// worker takes work local-first (LIFO from its own deque — cache-warm,
// obstruction-free), then from the injector, then steals the oldest task
// from a sibling; an idle worker spins briefly and then sleeps on a
// condition variable until a submit wakes it.
//
// Two usage rules keep the rest of the codebase simple:
//  - Tasks are plain std::function<void()> thunks and must not throw: a
//    trial that violates an invariant aborts via VDEP_ASSERT exactly as it
//    does on the serial path.
//  - Determinism is the *caller's* job. The pool executes tasks in an
//    arbitrary order on arbitrary threads; callers that need reproducible
//    results (the chaos campaign, the parallel shrinker) write into
//    pre-assigned slots and merge in a deterministic order afterwards.
//
// TaskGroup is the completion primitive: every submit against a group
// increments its pending count, finishing the task decrements it, and
// wait() *helps* — the waiting thread drains pool tasks instead of
// blocking, so nested fan-outs (a pool task waiting on a sub-batch, e.g.
// the parallel shrinker inside a campaign worker) cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/parallel/steal_deque.hpp"

namespace vdep::sim::parallel {

class StealPool;

// Counts outstanding tasks of one fan-out. A group may be reused for
// several waves (submit / wait / submit / wait ...), but must outlive every
// task submitted against it.
//
// Deliberately a bare atomic, no mutex/cv: a finishing task's *last* access
// to the group is the final fetch_sub itself, so the moment wait() observes
// zero the group can be destroyed (TaskGroups live on waiters' stacks — a
// cv notify after the decrement would race that destruction). The waiter
// never idles long anyway: wait() *helps*, draining pool tasks on the
// calling thread, and only naps briefly when nothing is runnable.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Blocks until every task submitted against this group has finished,
  // executing pool tasks on the calling thread while it waits.
  void wait(StealPool& pool);

  [[nodiscard]] std::uint64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class StealPool;

  std::atomic<std::uint64_t> pending_{0};
};

class StealPool {
 public:
  using Task = std::function<void()>;

  // Spawns `workers` threads (floored at 1).
  explicit StealPool(int workers);
  ~StealPool();

  StealPool(const StealPool&) = delete;
  StealPool& operator=(const StealPool&) = delete;

  [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }

  // Schedules `fn`. From a worker thread of this pool the task goes to that
  // worker's own deque (stealable by siblings); from any other thread it
  // goes to the shared injector queue.
  void submit(Task fn) { submit_node(make_node(std::move(fn), nullptr)); }

  // Same, tracked by `group` for TaskGroup::wait.
  void submit(TaskGroup& group, Task fn) {
    group.pending_.fetch_add(1, std::memory_order_acq_rel);
    submit_node(make_node(std::move(fn), &group));
  }

  // Runs one pending task on the calling thread if one can be found.
  // Returns false when nothing was runnable (which does not mean the pool
  // is idle — tasks may be mid-execution on workers).
  bool try_run_one();

 private:
  struct Node {
    Task fn;
    TaskGroup* group = nullptr;
  };

  struct Worker {
    StealDeque<Node> deque;
    std::thread thread;
  };

  static Node* make_node(Task fn, TaskGroup* group) {
    return new Node{std::move(fn), group};
  }

  void submit_node(Node* node);
  void worker_loop(std::size_t self);
  // Injector first (external work is oldest), then steal round-robin.
  Node* take_shared(std::size_t start_victim);
  void run_node(Node* node);
  void wake_one();

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex injector_mutex_;
  std::deque<Node*> injector_;

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  // Bumped by every submit; an idle worker records it before its final
  // queue re-check and sleeps only while it is unchanged, which closes the
  // check-then-sleep race without taking a lock on the submit fast path.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace vdep::sim::parallel
