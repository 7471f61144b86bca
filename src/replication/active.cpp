#include "replication/active.hpp"

#include "replication/replicator.hpp"

namespace vdep::replication {

void ActiveEngine::on_request(const RequestRecord& rec) {
  r_.execute_request(rec, /*send_reply=*/true);
}

void ActiveEngine::on_view_change(const gcs::View& /*old_view*/,
                                  const gcs::View& /*new_view*/) {
  // Survivors keep executing; nothing to do. Crash recovery of the *client's*
  // pending requests is the client coordinator's retransmission job.
}

}  // namespace vdep::replication
