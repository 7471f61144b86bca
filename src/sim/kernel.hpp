// The discrete-event simulation kernel: a virtual clock, an event queue and
// the root random stream for one experiment.
//
// Everything in the repository — network, group communication, ORB,
// replicator, workloads — runs as callbacks scheduled on one Kernel, so a
// whole distributed experiment is a single deterministic computation.
//
// A Kernel and its entire object graph (tracer, interner, pools, every
// component scheduled on it) are confined to one thread at a time. Parallel
// execution never shares a kernel: the chaos trial fleet runs one isolated
// Kernel per trial on pool workers.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/tracer.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace vdep::sim {

class Kernel {
 public:
  explicit Kernel(std::uint64_t seed);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` from now (delay >= 0).
  EventHandle post(SimTime delay, EventFn fn);

  // Schedules at an absolute time (>= now()).
  EventHandle post_at(SimTime at, EventFn fn);

  // Runs until the queue drains or stop() is called.
  void run();

  // Runs events with timestamp <= deadline; afterwards now() == deadline
  // unless stopped early or already past it.
  void run_until(SimTime deadline);

  // Runs at most `n` further events; returns the number executed.
  std::size_t run_steps(std::size_t n);

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  // Derives an independent random stream; components call this once at
  // construction with a unique index so that adding a component never
  // perturbs another component's randomness.
  [[nodiscard]] Rng fork_rng(std::uint64_t stream_index) {
    return root_rng_.fork(stream_index);
  }

  // Statistics about the run.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  // The experiment's tracer: one per kernel so span/trace ids are sequential
  // within a run and independent across runs. Off by default; the disabled
  // path is a single branch (see obs/tracer.hpp).
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

 private:
  void execute_one();

  SimTime now_ = kTimeZero;
  EventQueue queue_;
  Rng root_rng_;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  obs::Tracer tracer_{[this] { return now_; }};
};

}  // namespace vdep::sim
