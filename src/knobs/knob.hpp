// The knob abstraction — versatile dependability's central architectural
// feature (paper Secs. 2-3).
//
// Low-level knobs tune internal fault-tolerance mechanisms (replication
// style, number of replicas, checkpointing frequency — the FT-CORBA
// "fault-tolerance properties"). High-level knobs express externally-
// observable properties (scalability, availability) and encode the
// empirically-derived mapping onto low-level settings, so operators tune
// what they can observe without knowing the implementation.
//
// A low-level knob's value is a typed Setting; ReplicaGroupController::apply
// and read (knobs/low_level.hpp) actuate it. Text exists only at the
// VersatileDependability facade, which names knobs by the descriptors below.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <variant>

#include "replication/types.hpp"
#include "util/time.hpp"

namespace vdep::knobs {

enum class KnobLevel : std::uint8_t { kLow = 0, kHigh = 1 };

// The low-level knobs first, in the order of Setting's alternatives, then
// the high-level knobs the facade installs.
enum class KnobId : std::uint8_t {
  kReplicationStyle = 0,
  kReplicas = 1,
  kCheckpointInterval = 2,
  kCheckpointAnchorInterval = 3,
  kScalability = 4,
  kAvailability = 5,
};

// One low-level knob with its typed value: a replication style, a replica
// count, a checkpoint interval or a full-anchor cadence K. The alternative
// held names the knob.
struct Setting {
  std::variant<replication::ReplicationStyle, int, SimTime, std::uint32_t> value;

  [[nodiscard]] KnobId id() const { return static_cast<KnobId>(value.index()); }
  friend bool operator==(const Setting&, const Setting&) = default;
};

struct KnobDescriptor {
  KnobId id;
  std::string_view name;
  KnobLevel level;
  std::string_view description;
  // The discrete values the knob accepts, or empty for continuous ranges.
  std::span<const std::string_view> choices;
};

inline constexpr std::array<std::string_view, 5> kStyleChoices = {
    "active", "warm_passive", "cold_passive", "semi_active", "hybrid"};

// Every knob, in name order. Names follow the FT-CORBA fault-tolerance
// properties for the low-level knobs.
inline constexpr std::array<KnobDescriptor, 6> kKnobs = {{
    {KnobId::kAvailability, "Availability", KnobLevel::kHigh,
     "Target steady-state availability (e.g. 0.999); picks {style, replicas} "
     "under the MTTF/MTTR model",
     {}},
    {KnobId::kCheckpointAnchorInterval, "CheckpointAnchorInterval", KnobLevel::kLow,
     "Incremental checkpointing cadence: every K-th checkpoint is a full "
     "anchor, the rest dirty-set deltas (1 = every checkpoint full)",
     {}},
    {KnobId::kCheckpointInterval, "CheckpointInterval", KnobLevel::kLow,
     "Warm/cold passive checkpointing period, in microseconds", {}},
    {KnobId::kReplicas, "MinimumNumberReplicas", KnobLevel::kLow,
     "Number of replicas in the server group; growth triggers join + state "
     "transfer, shrinkage a graceful leave",
     {}},
    {KnobId::kReplicationStyle, "ReplicationStyle", KnobLevel::kLow,
     "Replication style of the server group; runtime changes run the Fig. 5 "
     "switch protocol",
     kStyleChoices},
    {KnobId::kScalability, "Scalability", KnobLevel::kHigh,
     "Number of clients to serve; applies the profiled {style, replicas} "
     "policy under the latency/bandwidth/fault-tolerance requirements",
     {}},
}};

}  // namespace vdep::knobs
