// Hybrid replication — the paper's Sec. 6 direction (after Bakken et al.,
// "Towards hybrid replication and caching strategies"): "some of the
// replicas can be active and some can be passive in order to increase the
// scalability of the system while keeping low fail-over delays."
//
// The first kActiveCore replicas (by view rank) form an active
// core: each executes every request and replies, so the failure of a core
// replica is absorbed with no client-visible gap. Replicas beyond the core
// are warm observers: they log requests and install periodic checkpoints
// from the head, contributing no execution or reply load. When an observer
// ascends into the core (after core crashes), it replays its short log —
// warm-passive recovery cost, but only on the rare multi-failure path.
#pragma once

#include "replication/engine.hpp"

namespace vdep::replication {

class HybridEngine final : public ReplicationEngine {
 public:
  // How many replicas (by view rank) form the active core.
  static constexpr std::size_t kActiveCore = 2;

  using ReplicationEngine::ReplicationEngine;

  [[nodiscard]] ReplicationStyle style() const override {
    return ReplicationStyle::kHybrid;
  }
  [[nodiscard]] bool responder() const override;

  void on_request(const RequestRecord& rec) override;
  void on_checkpoint(const CheckpointMsg& msg) override;
  void on_view_change(const gcs::View& old_view, const gcs::View& new_view) override;
  void on_timer() override;

 private:
  [[nodiscard]] bool in_core() const;

  // Observer checkpoints fire every Nth engine tick (see on_timer).
  static constexpr std::uint64_t kObserverSyncEvery = 4;
  std::uint64_t ticks_ = 0;
};

}  // namespace vdep::replication
