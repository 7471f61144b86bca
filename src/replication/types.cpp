#include "replication/types.hpp"

#include <stdexcept>

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

ReplicationStyle parse_style(const std::string& name) {
  if (name == "active") return ReplicationStyle::kActive;
  if (name == "warm_passive") return ReplicationStyle::kWarmPassive;
  if (name == "cold_passive") return ReplicationStyle::kColdPassive;
  if (name == "semi_active") return ReplicationStyle::kSemiActive;
  if (name == "hybrid") return ReplicationStyle::kHybrid;
  throw std::invalid_argument("unknown replication style: " + name);
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

Payload RepEnvelope::encode() const { return wire::encode(*this); }

RepEnvelope RepEnvelope::decode(const Payload& raw) { return wire::decode<RepEnvelope>(raw); }

Payload CheckpointMsg::encode() const { return wire::encode(*this); }

CheckpointMsg CheckpointMsg::decode(const Payload& raw, Kind kind) {
  wire::Reader r(raw);
  CheckpointMsg m;
  m.kind = kind;
  r(m);
  return m;
}

Payload StateTransferMsg::encode() const { return wire::encode(*this); }

StateTransferMsg StateTransferMsg::decode(const Payload& raw) {
  return wire::decode<StateTransferMsg>(raw);
}

Payload SwitchMsg::encode() const { return wire::encode(*this); }

SwitchMsg SwitchMsg::decode(std::span<const std::uint8_t> raw) {
  return wire::decode<SwitchMsg>(raw);
}

}  // namespace vdep::replication
