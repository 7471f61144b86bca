#include "replication/types.hpp"

#include "util/wire.hpp"

namespace vdep::replication {

std::string to_string(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kActive: return "active";
    case ReplicationStyle::kWarmPassive: return "warm_passive";
    case ReplicationStyle::kColdPassive: return "cold_passive";
    case ReplicationStyle::kSemiActive: return "semi_active";
    case ReplicationStyle::kHybrid: return "hybrid";
  }
  return "?";
}

std::string style_code(ReplicationStyle style) {
  switch (style) {
    case ReplicationStyle::kActive: return "A";
    case ReplicationStyle::kWarmPassive: return "P";
    case ReplicationStyle::kColdPassive: return "C";
    case ReplicationStyle::kSemiActive: return "S";
    case ReplicationStyle::kHybrid: return "H";
  }
  return "?";
}

Bytes RepEnvelope::encode() const { return wire::encode(*this, payload.size() + 8); }

RepEnvelope RepEnvelope::decode(const Payload& raw) { return wire::decode<RepEnvelope>(raw); }

Bytes CheckpointMsg::encode() const {
  return wire::encode(*this, app_state.size() + reply_cache.size() + 48);
}

CheckpointMsg CheckpointMsg::decode(const Payload& raw, Kind kind) {
  wire::Reader r(raw);
  CheckpointMsg m;
  m.kind = kind;
  r(m);
  return m;
}

Bytes StateTransferMsg::encode() const {
  std::size_t total = anchor.size() + 16;
  for (const auto& d : deltas) total += d.size() + 4;
  return wire::encode(*this, total);
}

StateTransferMsg StateTransferMsg::decode(const Payload& raw) {
  return wire::decode<StateTransferMsg>(raw);
}

Bytes SwitchMsg::encode() const { return wire::encode(*this); }

SwitchMsg SwitchMsg::decode(std::span<const std::uint8_t> raw) {
  return wire::decode<SwitchMsg>(raw);
}

}  // namespace vdep::replication
