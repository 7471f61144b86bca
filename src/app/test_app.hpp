// The CORBA-style client-server micro-benchmark application of Sec. 4 ("a
// CORBA client-server test application that processes a cycle of 10,000
// requests"), made checkpointable so every replication style can host it.
#pragma once

#include <functional>

#include "orb/orb_core.hpp"
#include "replication/app_state.hpp"
#include "util/calibration.hpp"
#include "util/stats.hpp"

namespace vdep::app {

// Deterministic servant with tunable state size, reply size and execution
// time — the "application parameters" column of the paper's Table 1.
class TestServant final : public replication::Checkpointable {
 public:
  struct Config {
    std::size_t state_bytes = calib::kDefaultStateBytes;
    std::size_t reply_bytes = calib::kDefaultReplyBytes;
  };

  TestServant() : TestServant(Config{}) {}
  explicit TestServant(Config config);

  // Operations:
  //   "process"    — folds the request payload into the state, returns a
  //                  reply of the configured size carrying (counter, digest);
  //   "get_digest" — read-only state digest;
  //   anything else -> user exception.
  Result invoke(const std::string& operation, const Bytes& args) override;

  [[nodiscard]] Bytes snapshot() const override;
  void restore(std::span<const std::uint8_t> snapshot) override;
  [[nodiscard]] std::size_t state_size() const override;
  [[nodiscard]] std::uint64_t state_digest() const override { return digest_; }

  // Trivial incremental-checkpoint support: the synthetic state has no
  // tractable dirty set ("process" perturbs pseudo-random bytes), so a delta
  // is simply the full snapshot and apply_delta == restore. This exercises
  // the replicator's chain machinery without claiming a byte saving.
  [[nodiscard]] bool supports_delta() const override { return true; }
  std::uint64_t cut_epoch() override { return epoch_++; }
  [[nodiscard]] std::optional<Bytes> snapshot_delta(
      std::uint64_t since_epoch) const override {
    if (since_epoch >= epoch_) return std::nullopt;
    return snapshot();
  }
  void apply_delta(std::span<const std::uint8_t> delta) override { restore(delta); }

  [[nodiscard]] std::uint64_t counter() const { return counter_; }

 private:
  Config config_;
  Bytes state_;
  std::uint64_t counter_ = 0;
  std::uint64_t digest_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t epoch_ = 1;
};

// Parses the reply body produced by TestServant::invoke("process").
struct ProcessReply {
  std::uint64_t counter = 0;
  std::uint64_t digest = 0;

  static ProcessReply decode(const Bytes& body);
};

// Closed-loop client driver: issues the next request as soon as the previous
// reply arrives (the paper's request cycle). Latencies recorded only after
// the warm-up count.
class ClosedLoopClient {
 public:
  struct Config {
    std::size_t request_bytes = calib::kDefaultRequestBytes;
    int total_requests = calib::kDefaultCycleRequests;
    int warmup_requests = 200;
  };

  ClosedLoopClient(orb::ClientOrb& orb, orb::ObjectRef ref, Config config);

  void start();

  [[nodiscard]] bool done() const { return completed_ >= config_.total_requests; }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] bool past_warmup() const { return completed_ >= config_.warmup_requests; }
  [[nodiscard]] const Sampler& latencies() const { return latencies_; }
  [[nodiscard]] SimTime first_measured_at() const { return first_measured_; }
  [[nodiscard]] SimTime last_completed_at() const { return last_completed_; }

  // Fired once when warm-up finishes and once when the cycle completes.
  void set_on_warmup_done(std::function<void()> fn) { on_warmup_ = std::move(fn); }
  void set_on_done(std::function<void()> fn) { on_done_ = std::move(fn); }
  // Fired on every completed request (warm-up included) with its round-trip
  // latency; feeds per-request telemetry (the health plane's SLO input).
  void set_on_complete(std::function<void(double latency_us)> fn) {
    on_complete_ = std::move(fn);
  }

 private:
  void issue_next();

  orb::ClientOrb& orb_;
  orb::ObjectRef ref_;
  Config config_;
  int completed_ = 0;
  Sampler latencies_;
  SimTime first_measured_ = kTimeZero;
  SimTime last_completed_ = kTimeZero;
  std::function<void()> on_warmup_;
  std::function<void()> on_done_;
  std::function<void(double)> on_complete_;
};

}  // namespace vdep::app
