#include "replication/warm_passive.hpp"

#include "replication/replicator.hpp"

namespace vdep::replication {

bool WarmPassiveEngine::responder() const { return r_.my_rank() == 0; }

void WarmPassiveEngine::on_request(const RequestRecord& rec) {
  if (responder()) {
    r_.execute_request(rec, /*send_reply=*/true);
    r_.checkpoint_if_due();
  } else {
    r_.log_request(rec);
  }
}

void WarmPassiveEngine::on_checkpoint(const CheckpointMsg& msg) {
  // Backups apply checkpoints eagerly ("warm"), truncating their logs.
  r_.install_checkpoint(msg);
}

void WarmPassiveEngine::on_view_change(const gcs::View& old_view,
                                       const gcs::View& new_view) {
  const ProcessId self = r_.process().id();
  const bool was_head = !old_view.members.empty() && old_view.members.front().process == self;
  const bool is_head = !new_view.members.empty() && new_view.members.front().process == self;
  if (is_head && !was_head) {
    // The primary failed (or left): replay the log since the last checkpoint
    // and assume primary duties.
    r_.promote_warm();
  }
}

void WarmPassiveEngine::on_timer() {
  if (responder()) r_.checkpoint_tick(/*first_stale_rank=*/1);
}

}  // namespace vdep::replication
