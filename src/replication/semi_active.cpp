#include "replication/semi_active.hpp"

#include "replication/replicator.hpp"

namespace vdep::replication {

bool SemiActiveEngine::responder() const { return r_.my_rank() == 0; }

void SemiActiveEngine::on_request(const RequestRecord& rec) {
  // Followers execute too (their reply cache fills), but stay silent; the
  // leader transmits. A client retransmission after leader failover hits the
  // new leader's reply cache, so no reply is ever lost permanently.
  r_.execute_request(rec, /*send_reply=*/responder());
}

void SemiActiveEngine::on_view_change(const gcs::View& /*old_view*/,
                                      const gcs::View& /*new_view*/) {
  // Leadership follows view rank; nothing to replay.
}

}  // namespace vdep::replication
