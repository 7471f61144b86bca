#include "app/workload.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vdep::app {

namespace {
// Cap on in-flight requests so an overloaded passive server degrades by
// queueing at the client, as a real ORB connection pool would.
constexpr std::uint64_t kMaxOutstanding = 64;
}  // namespace

RatePlan::RatePlan(std::vector<Segment> segments) : segments_(std::move(segments)) {
  VDEP_ASSERT(std::is_sorted(segments_.begin(), segments_.end(),
                             [](const Segment& a, const Segment& b) {
                               return a.start < b.start;
                             }));
}

RatePlan RatePlan::constant(double rate_rps) {
  return RatePlan({Segment{kTimeZero, rate_rps}});
}

RatePlan RatePlan::fig6_burst(double low_rps, double high_rps, SimTime plateau,
                              int plateaus) {
  std::vector<Segment> segments;
  for (int i = 0; i < plateaus; ++i) {
    segments.push_back(Segment{plateau * i, i % 2 == 0 ? low_rps : high_rps});
  }
  return RatePlan(std::move(segments));
}

double RatePlan::rate_at(SimTime t) const {
  double rate = 0.0;
  for (const auto& seg : segments_) {
    if (seg.start <= t) rate = seg.rate_rps;
  }
  return rate;
}

SimTime RatePlan::end_of_last_segment() const {
  return segments_.empty() ? kTimeZero : segments_.back().start;
}

OpenLoopClient::OpenLoopClient(orb::ClientOrb& orb, orb::ObjectRef ref, RatePlan plan,
                               Config config, Rng rng)
    : orb_(orb),
      ref_(std::move(ref)),
      plan_(std::move(plan)),
      config_(config),
      rng_(rng) {}

void OpenLoopClient::start() {
  started_ = orb_.process().now();
  schedule_next_arrival();
}

void OpenLoopClient::schedule_next_arrival() {
  const SimTime now = orb_.process().now();
  const SimTime elapsed = now - started_;
  if (elapsed >= config_.duration) {
    finished_ = true;
    if (outstanding_ == 0 && on_done_) on_done_();
    return;
  }
  const double rate = plan_.rate_at(elapsed);
  if (rate <= 0.0) {
    // Idle segment: poll for the next one.
    orb_.process().post(msec(10), [this] { schedule_next_arrival(); });
    return;
  }
  const SimTime gap = sec_f(rng_.exponential(1.0 / rate));
  orb_.process().post(std::max(gap, nsec(1)), [this] {
    issue();
    schedule_next_arrival();
  });
}

void OpenLoopClient::issue() {
  if (outstanding_ >= kMaxOutstanding) return;
  ++issued_;
  ++outstanding_;
  const SimTime sent = orb_.process().now();
  orb_.invoke(ref_, "process", filler_bytes(config_.request_bytes),
              [this, sent](orb::ReplyStatus status, Bytes /*body*/) {
                --outstanding_;
                // A failed request (the coordinator gave up) is neither a
                // completion nor a latency sample; issued() still counts it.
                if (status == orb::ReplyStatus::kNoException) {
                  ++completed_;
                  latencies_.add(to_usec(orb_.process().now() - sent));
                }
                if (finished_ && outstanding_ == 0 && on_done_) on_done_();
              });
}

}  // namespace vdep::app
