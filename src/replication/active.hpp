// Active replication — the state-machine approach (Schneider): every replica
// executes every totally-ordered request and replies; the client keeps the
// first reply (or majority-votes when Byzantine failures are a concern).
// Fast response and recovery — no checkpointing or rollback — at the price
// of k-fold processing and reply bandwidth.
#pragma once

#include "replication/engine.hpp"

namespace vdep::replication {

class ActiveEngine final : public ReplicationEngine {
 public:
  using ReplicationEngine::ReplicationEngine;

  [[nodiscard]] ReplicationStyle style() const override {
    return ReplicationStyle::kActive;
  }
  [[nodiscard]] bool responder() const override { return true; }

  void on_request(const RequestRecord& rec) override;
  void on_view_change(const gcs::View& old_view, const gcs::View& new_view) override;
};

}  // namespace vdep::replication
