// Open-loop workload generation: request arrivals driven by a time-varying
// rate plan rather than by reply completions. This is what drives the
// adaptive-replication experiment (Fig. 6): the request rate sweeps between
// low and high regimes and the infrastructure must follow with style
// switches.
#pragma once

#include <functional>
#include <vector>

#include "orb/orb_core.hpp"
#include "util/calibration.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vdep::app {

// Piecewise-constant request rate (requests/second) over time.
class RatePlan {
 public:
  struct Segment {
    SimTime start;
    double rate_rps;
  };

  RatePlan() = default;
  explicit RatePlan(std::vector<Segment> segments);

  static RatePlan constant(double rate_rps);
  // The Fig. 6 shape: alternating low/high plateaus over ~30 s.
  static RatePlan fig6_burst(double low_rps = 250, double high_rps = 1100,
                             SimTime plateau = sec(5), int plateaus = 6);

  [[nodiscard]] double rate_at(SimTime t) const;
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }
  [[nodiscard]] SimTime end_of_last_segment() const;

 private:
  std::vector<Segment> segments_;  // sorted by start
};

// Issues requests through a client ORB following a rate plan (Poisson
// arrivals at the instantaneous rate). Replies are tracked for latency but
// never gate the next send.
class OpenLoopClient {
 public:
  struct Config {
    std::size_t request_bytes = calib::kDefaultRequestBytes;
    SimTime duration = sec(30);
  };

  OpenLoopClient(orb::ClientOrb& orb, orb::ObjectRef ref, RatePlan plan, Config config,
                 Rng rng);

  void start();

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }
  [[nodiscard]] const Sampler& latencies() const { return latencies_; }

  void set_on_done(std::function<void()> fn) { on_done_ = std::move(fn); }

 private:
  void schedule_next_arrival();
  void issue();

  orb::ClientOrb& orb_;
  orb::ObjectRef ref_;
  RatePlan plan_;
  Config config_;
  Rng rng_;
  SimTime started_ = kTimeZero;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t outstanding_ = 0;
  Sampler latencies_;
  std::function<void()> on_done_;
  bool finished_ = false;
};

}  // namespace vdep::app
