// The low-level knobs (paper Table 1): replication style, number of
// replicas, checkpointing frequency and the full-anchor cadence, actuated on
// a live replica group. The paper critiques the FT-CORBA properties these
// mirror for lacking operator guidance; versatile dependability keeps them
// available but expects operators to use the high-level knobs.
#pragma once

#include <cstdint>

#include "knobs/knob.hpp"

namespace vdep::knobs {

// Group-level actuation the harness (or a deployment manager) provides:
// growing/shrinking the replica set is an infrastructure operation, not
// something one replicator instance can do alone.
class ReplicaGroupController {
 public:
  static constexpr int kMinReplicas = 1;
  static constexpr int kMaxReplicas = 8;

  virtual ~ReplicaGroupController() = default;

  // Sets one low-level knob. Throws std::invalid_argument for a replica
  // count outside [kMinReplicas, kMaxReplicas] or an anchor interval of 0.
  void apply(const Setting& setting);
  // The current value of a low-level knob; throws std::invalid_argument for
  // a high-level id.
  [[nodiscard]] Setting read(KnobId id) const;

  // "ReplicationStyle" — switches at runtime through the Fig. 5 protocol.
  virtual void set_style(replication::ReplicationStyle style) = 0;
  [[nodiscard]] virtual replication::ReplicationStyle style() const = 0;

  // "MinimumNumberReplicas" — grows via join + state transfer, shrinks via
  // leave.
  virtual void set_replica_count(int replicas) = 0;
  [[nodiscard]] virtual int replica_count() const = 0;

  // "CheckpointInterval" — the checkpointing-frequency knob.
  virtual void set_checkpoint_interval(SimTime interval) = 0;
  [[nodiscard]] virtual SimTime checkpoint_interval() const = 0;

  // "CheckpointAnchorInterval" — incremental checkpointing cadence: every
  // K-th checkpoint is a full anchor, the rest are dirty-set deltas (K = 1
  // disables deltas).
  virtual void set_checkpoint_anchor_interval(std::uint32_t interval) = 0;
  [[nodiscard]] virtual std::uint32_t checkpoint_anchor_interval() const = 0;
};

}  // namespace vdep::knobs
