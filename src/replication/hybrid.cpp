#include "replication/hybrid.hpp"

#include "replication/replicator.hpp"

namespace vdep::replication {

bool HybridEngine::in_core() const { return r_.my_rank() < kActiveCore; }

bool HybridEngine::responder() const { return in_core(); }

void HybridEngine::on_request(const RequestRecord& rec) {
  if (in_core()) {
    r_.execute_request(rec, /*send_reply=*/true);
  } else {
    r_.log_request(rec);
  }
}

void HybridEngine::on_checkpoint(const CheckpointMsg& msg) {
  // Core replicas are current; observers install eagerly (warm semantics).
  if (!in_core()) r_.install_checkpoint(msg);
}

void HybridEngine::on_view_change(const gcs::View& old_view, const gcs::View& new_view) {
  const ProcessId self = r_.process().id();
  const auto old_rank = old_view.rank_of(self);
  const auto new_rank = new_view.rank_of(self);
  if (!new_rank) return;
  const bool was_core = old_rank && *old_rank < kActiveCore;
  const bool is_core = *new_rank < kActiveCore;
  if (is_core && !was_core) {
    // Ascending into the core: catch up from the log. Reply while replaying
    // only when we are the new head (other core members may all be gone).
    r_.replay_log(/*send_replies=*/*new_rank == 0);
  }
}

void HybridEngine::on_timer() {
  // Observers are third-tier redundancy: the core already absorbs single
  // failures instantly, so they are kept warm on a relaxed cadence — every
  // few checkpoint-interval ticks, not per batch of requests. That is what
  // keeps hybrid cheaper on the wire than both active and warm passive.
  if (r_.my_rank() == 0 && ++ticks_ % kObserverSyncEvery == 0) {
    r_.checkpoint_tick(kActiveCore);
  }
}

}  // namespace vdep::replication
