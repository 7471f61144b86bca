#include "knobs/low_level.hpp"

#include <stdexcept>
#include <string>

namespace vdep::knobs {

void ReplicaGroupController::apply(const Setting& setting) {
  const auto& v = setting.value;
  switch (setting.id()) {
    case KnobId::kReplicationStyle:
      set_style(std::get<replication::ReplicationStyle>(v));
      return;
    case KnobId::kReplicas: {
      const int n = std::get<int>(v);
      if (n < kMinReplicas || n > kMaxReplicas) {
        throw std::invalid_argument("replica count out of range: " + std::to_string(n));
      }
      set_replica_count(n);
      return;
    }
    case KnobId::kCheckpointInterval:
      set_checkpoint_interval(std::get<SimTime>(v));
      return;
    case KnobId::kCheckpointAnchorInterval: {
      const std::uint32_t k = std::get<std::uint32_t>(v);
      if (k < 1) throw std::invalid_argument("anchor interval out of range: 0");
      set_checkpoint_anchor_interval(k);
      return;
    }
    case KnobId::kScalability:
    case KnobId::kAvailability:
      break;  // no Setting holds a high-level id
  }
}

Setting ReplicaGroupController::read(KnobId id) const {
  switch (id) {
    case KnobId::kReplicationStyle: return {style()};
    case KnobId::kReplicas: return {replica_count()};
    case KnobId::kCheckpointInterval: return {checkpoint_interval()};
    case KnobId::kCheckpointAnchorInterval: return {checkpoint_anchor_interval()};
    case KnobId::kScalability:
    case KnobId::kAvailability:
      break;
  }
  throw std::invalid_argument("not a low-level knob");
}

}  // namespace vdep::knobs
