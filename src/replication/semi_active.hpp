// Semi-active replication — the Delta-4 XPA leader/follower model the paper
// cites as middle ground (Sec. 6): every replica executes every request (so
// failover needs no checkpoints or replay) but only the leader transmits
// replies (so reply bandwidth stays flat with the replica count). One of the
// paper's planned style extensions, implemented here for the ablation bench.
#pragma once

#include "replication/engine.hpp"

namespace vdep::replication {

class SemiActiveEngine final : public ReplicationEngine {
 public:
  using ReplicationEngine::ReplicationEngine;

  [[nodiscard]] ReplicationStyle style() const override {
    return ReplicationStyle::kSemiActive;
  }
  [[nodiscard]] bool responder() const override;

  void on_request(const RequestRecord& rec) override;
  void on_view_change(const gcs::View& old_view, const gcs::View& new_view) override;
};

}  // namespace vdep::replication
