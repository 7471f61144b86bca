// Replication styles and the envelope protocol replicas speak over the
// group-communication system.
//
// Styles (paper Sec. 3.1 plus the planned extensions from Sec. 6):
//   Active       — state-machine replication: every replica executes every
//                  request and replies; the client accepts the first reply
//                  (or majority-votes).
//   WarmPassive  — primary executes and replies; backups log requests and
//                  apply periodic checkpoints; failover promotes the
//                  highest-ranked backup, which replays the log.
//   ColdPassive  — like warm passive, but backups are dormant: they retain
//                  the latest checkpoint and log without applying them, and
//                  pay a launch delay before taking over.
//   SemiActive   — Delta-4 XPA leader/follower: all execute, only the leader
//                  replies; failover is instant and needs no checkpoints.
//   Hybrid       — an active core of the first k replicas (instant failover,
//                  k-fold execution) plus warm observers beyond it (cheap
//                  extra redundancy) — the Sec. 6 extension direction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/calibration.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"
#include "util/time.hpp"

namespace vdep::replication {

enum class ReplicationStyle : std::uint8_t {
  kActive = 0,
  kWarmPassive = 1,
  kColdPassive = 2,
  kSemiActive = 3,
  kHybrid = 4,
};

[[nodiscard]] std::string to_string(ReplicationStyle style);
// The inverse of to_string; throws std::invalid_argument on any other name.
[[nodiscard]] ReplicationStyle parse_style(const std::string& name);

// Short form used in the paper's tables: A(3), P(2), ...
[[nodiscard]] std::string style_code(ReplicationStyle style);

// Messages multicast within a replica group.
struct RepEnvelope {
  enum class Type : std::uint8_t {
    kRequest = 1,       // a client's GIOP request (payload = GIOP bytes)
    kCheckpoint = 2,    // full state checkpoint / anchor (payload = CheckpointMsg)
    kSwitch = 3,        // replication-style switch, Fig. 5 (payload = SwitchMsg)
    kStateRequest = 4,  // a joining replica asking for a state transfer
    // Incremental checkpointing (new types keep full checkpoints, type 2,
    // byte-identical to the original wire format):
    kCheckpointDelta = 5,  // delta checkpoint (payload = CheckpointMsg, kDelta)
    kStateTransfer = 6,    // anchor + delta suffix (payload = StateTransferMsg)
    kAnchorRequest = 7,    // a backup with a chain gap asking for a full anchor
  };

  Type type = Type::kRequest;
  Payload payload;

  [[nodiscard]] Payload encode() const;
  // The decoded payload aliases `raw`'s buffer when it carries an owner.
  static RepEnvelope decode(const Payload& raw);
  template <typename IO>
  friend void wire_fields(IO& io, RepEnvelope& m) {
    io.enum_in(m.type, Type::kRequest, Type::kAnchorRequest, "bad envelope type");
    io(m.payload);
  }
};

// A per-client applied frontier: (client, highest retention id folded into
// the state), sorted by client with each client at most once.
using AppliedFrontier = std::vector<std::pair<ProcessId, std::uint64_t>>;

// A checkpoint: the application snapshot plus everything a backup needs to
// take over without violating exactly-once:
//  - `applied` gives each client's highest retention id folded into this
//    snapshot. Retention ids are per-client monotone (FT-CORBA), so a
//    request is a duplicate w.r.t. this state iff its id is <= the
//    client's entry — robust against client retransmissions, group-layer
//    replays and joiners whose local delivery counts differ from the
//    primary's;
//  - `reply_cache` holds recent replies for resending to retrying clients.
//
// Two kinds on the wire. A *full* checkpoint (anchor) carries the whole app
// snapshot and is self-contained; its encoding is unchanged from the
// original protocol. A *delta* checkpoint carries only the app's dirty set
// since `base_epoch` (the checkpoint id it chains onto) and is only
// installable on a replica whose state is exactly at `base_epoch`;
// `delta_epoch` equals `checkpoint_id` and is written explicitly so the
// chain position survives re-encoding. A full checkpoint's frontier and
// reply cache are complete (every client; the newest 16 replies). A delta's
// hold only the frontier entries that moved and the replies added since
// `base_epoch`; installers merge them (frontiers by max, replies appended and
// trimmed to the newest 16), which gives exactly what a full checkpoint of
// the same cut would.
struct CheckpointMsg {
  enum class Kind : std::uint8_t { kFull = 0, kDelta = 1 };

  Kind kind = Kind::kFull;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t base_epoch = 0;   // delta only: predecessor checkpoint id
  std::uint64_t delta_epoch = 0;  // delta only: == checkpoint_id
  AppliedFrontier applied;
  Payload app_state;  // full snapshot, or the app's delta encoding
  Payload reply_cache;

  [[nodiscard]] Payload encode() const;
  static CheckpointMsg decode(const Payload& raw, Kind kind = Kind::kFull);
  // The kind itself travels in the envelope type (kCheckpointDelta), so
  // full checkpoints stay byte-identical to the pre-delta wire format.
  template <typename IO>
  friend void wire_fields(IO& io, CheckpointMsg& m) {
    io(m.checkpoint_id);
    if (m.kind == Kind::kDelta) {
      io(m.base_epoch, m.delta_epoch);
      io.check(m.delta_epoch == m.checkpoint_id, "delta checkpoint id/epoch mismatch");
      io.check(m.base_epoch < m.delta_epoch, "delta checkpoint chains backwards");
    }
    io.seq(m.applied, 16);  // client + retention id
    io.check(std::ranges::adjacent_find(m.applied, std::greater_equal<>{},
                                        &AppliedFrontier::value_type::first) ==
                 m.applied.end(),
             "checkpoint frontier clients not strictly increasing");
    io(m.app_state, m.reply_cache);
  }
};

// State transfer bundle: the donor's retained full anchor plus the encoded
// delta suffix cut since it. A joiner installs the whole chain atomically;
// initialized backups install whatever continues their own chain (the bundle
// carries the freshly cut delta, which is not multicast separately).
struct StateTransferMsg {
  Payload anchor;               // encoded full CheckpointMsg
  std::vector<Payload> deltas;  // encoded delta CheckpointMsgs, chain order

  [[nodiscard]] Payload encode() const;
  static StateTransferMsg decode(const Payload& raw);
  template <typename IO>
  friend void wire_fields(IO& io, StateTransferMsg& m) {
    io(m.anchor);
    io.seq(m.deltas, 4);  // each delta is at least its length prefix
  }
};

struct SwitchMsg {
  ReplicationStyle target = ReplicationStyle::kActive;
  // Who initiated, for tracing; duplicates from concurrent initiators are
  // discarded at delivery (paper Fig. 5, step I).
  ProcessId initiator;

  [[nodiscard]] Payload encode() const;
  static SwitchMsg decode(std::span<const std::uint8_t> raw);
  template <typename IO>
  friend void wire_fields(IO& io, SwitchMsg& m) {
    io.enum_in(m.target, ReplicationStyle::kActive, ReplicationStyle::kHybrid,
               "bad switch target");
    io(m.initiator);
  }
};

struct ReplicatorParams {
  // Checkpointing frequency — the paper's low-level knob, in both flavours:
  // a periodic floor (time-based) and an every-N-requests trigger so that
  // backup staleness stays bounded under load (0 disables the trigger).
  SimTime checkpoint_interval = calib::kDefaultCheckpointInterval;  // warm/cold passive
  std::uint32_t checkpoint_every_requests = 25;
  // Incremental checkpointing cadence ("CheckpointAnchorInterval" knob):
  // every K-th group checkpoint is a full anchor; the up-to-K-1 checkpoints
  // between anchors are dirty-set deltas (when the app supports them). 1 =
  // every checkpoint is full — byte-identical to the pre-delta protocol.
  std::uint32_t checkpoint_anchor_interval = 1;
  // TEST ONLY — deliberate safety bug for the chaos engine's oracle
  // self-check: disables the applied-frontier/reply-cache dedup so client
  // retransmissions and log replays execute again. Never enable in a real
  // configuration.
  bool skip_reply_dedup = false;
};

}  // namespace vdep::replication
