#include "replication/cold_passive.hpp"

#include "replication/replicator.hpp"

namespace vdep::replication {

bool ColdPassiveEngine::responder() const {
  return r_.my_rank() == 0 && !r_.cold_launch_pending();
}

void ColdPassiveEngine::on_request(const RequestRecord& rec) {
  if (responder()) {
    r_.execute_request(rec, /*send_reply=*/true);
    r_.checkpoint_if_due();
  } else {
    // Dormant backups (and a still-launching promotee) just log.
    r_.log_request(rec);
  }
}

void ColdPassiveEngine::on_checkpoint(const CheckpointMsg& msg) {
  // Cold: retain without applying; install happens at launch.
  r_.store_checkpoint(msg);
}

void ColdPassiveEngine::on_view_change(const gcs::View& old_view,
                                       const gcs::View& new_view) {
  const ProcessId self = r_.process().id();
  const bool was_head = !old_view.members.empty() && old_view.members.front().process == self;
  const bool is_head = !new_view.members.empty() && new_view.members.front().process == self;
  if (is_head && !was_head) r_.promote_cold();
}

void ColdPassiveEngine::on_timer() {
  if (responder()) r_.checkpoint_tick(/*first_stale_rank=*/1);
}

}  // namespace vdep::replication
