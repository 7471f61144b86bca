// Fixed instances of every infrastructure wire encoding, shared by the
// golden-bytes pin and the decoder mutation sweep. Each blob carries the
// codec's decode-then-encode round trip, so a test can both check that a
// blob survives decoding unchanged and feed the decoder mutated copies.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gcs/message.hpp"
#include "gcs/view.hpp"
#include "monitor/replicated_state.hpp"
#include "net/fault_plan.hpp"
#include "replication/reply_cache.hpp"
#include "replication/types.hpp"
#include "util/bytes.hpp"
#include "util/payload.hpp"

namespace vdep::wire_test {

struct WireBlob {
  std::string name;
  Bytes bytes;
  // Decodes `raw` and encodes the result again; throws DecodeError when
  // `raw` is malformed.
  std::function<Bytes(std::span<const std::uint8_t>)> reencode;
};

inline Bytes reencode_inner(std::span<const std::uint8_t> raw) {
  return gcs::encode_inner(gcs::decode_inner(Payload::copy_of(raw))).to_bytes();
}

inline gcs::View sample_view() {
  gcs::View v;
  v.group = GroupId{7};
  v.view_id = 4;
  v.members = {{ProcessId{11}, NodeId{1}}, {ProcessId{12}, NodeId{2}},
               {ProcessId{13}, NodeId{3}}};
  return v;
}

inline gcs::Forward sample_forward() {
  gcs::Forward f;
  f.group = GroupId{7};
  f.kind = gcs::Forward::Kind::kJoin;
  f.svc = gcs::ServiceType::kSafe;
  f.origin = {ProcessId{11}, 3};
  f.origin_daemon = NodeId{2};
  f.payload = Payload(filler_bytes(5));
  f.trace = {0x1111, 0x2222};
  return f;
}

inline gcs::Ordered sample_ordered() {
  gcs::Ordered o;
  o.group = GroupId{7};
  o.epoch = 4;
  o.seq = 9;
  o.kind = gcs::Ordered::Kind::kData;
  o.svc = gcs::ServiceType::kFifo;
  o.origin = {ProcessId{12}, 5};
  o.origin_daemon = NodeId{1};
  o.payload = Payload(filler_bytes(6, 0x11));
  o.prev_epoch_end = 3;
  o.stable_upto = 8;
  o.trace = {0x3333, 0x4444};
  return o;
}

inline gcs::OrdAck sample_ord_ack() { return {NodeId{3}, GroupId{7}, 4, 9}; }

inline replication::CheckpointMsg sample_full_checkpoint() {
  replication::CheckpointMsg m;
  m.checkpoint_id = 5;
  m.applied = {{ProcessId{11}, 3}, {ProcessId{12}, 9}};
  m.app_state = Payload(filler_bytes(12));
  m.reply_cache = Payload(filler_bytes(4, 0x22));
  return m;
}

inline replication::CheckpointMsg sample_delta_checkpoint() {
  replication::CheckpointMsg m;
  m.kind = replication::CheckpointMsg::Kind::kDelta;
  m.checkpoint_id = 6;
  m.base_epoch = 5;
  m.delta_epoch = 6;
  m.applied = {{ProcessId{11}, 4}, {ProcessId{13}, 1}};
  m.app_state = Payload(filler_bytes(4, 0x33));
  m.reply_cache = Payload(filler_bytes(2, 0x44));
  return m;
}

// The 17 pinned encodings, in a fixed order.
inline std::vector<WireBlob> wire_blobs() {
  using replication::CheckpointMsg;
  std::vector<WireBlob> out;

  out.push_back({"Forward", gcs::encode_inner(sample_forward()).to_bytes(), reencode_inner});
  out.push_back({"Ordered", gcs::encode_inner(sample_ordered()).to_bytes(), reencode_inner});
  out.push_back({"OrdAck", gcs::encode_inner(sample_ord_ack()).to_bytes(), reencode_inner});
  out.push_back({"StableMsg", gcs::encode_inner(gcs::StableMsg{GroupId{7}, 4, 8}).to_bytes(),
                 reencode_inner});
  out.push_back({"Takeover", gcs::encode_inner(gcs::Takeover{6, NodeId{3}}).to_bytes(),
                 reencode_inner});
  gcs::SyncState sync;
  sync.term = 6;
  sync.from = NodeId{2};
  sync.buffered = {sample_ordered()};
  sync.pending = {sample_forward()};
  sync.views = {sample_view()};
  sync.acks = {sample_ord_ack()};
  out.push_back({"SyncState", gcs::encode_inner(sync).to_bytes(), reencode_inner});
  gcs::PrivateMsg priv;
  priv.sender = ProcessId{11};
  priv.sender_daemon = NodeId{2};
  priv.destination = ProcessId{12};
  priv.payload = Payload(filler_bytes(3, 0x55));
  priv.trace = {0x5555, 0x6666};
  out.push_back({"PrivateMsg", gcs::encode_inner(priv).to_bytes(), reencode_inner});
  out.push_back({"FwdAck",
                 gcs::encode_inner(gcs::FwdAck{GroupId{7}, {ProcessId{11}, 3}}).to_bytes(),
                 reencode_inner});

  out.push_back({"View", sample_view().encode(), [](std::span<const std::uint8_t> raw) {
                   return gcs::View::decode(raw).encode();
                 }});
  out.push_back({"CheckpointMsg.full", sample_full_checkpoint().encode(),
                 [](std::span<const std::uint8_t> raw) {
                   return CheckpointMsg::decode(Payload::copy_of(raw)).encode();
                 }});
  out.push_back({"CheckpointMsg.delta", sample_delta_checkpoint().encode(),
                 [](std::span<const std::uint8_t> raw) {
                   return CheckpointMsg::decode(Payload::copy_of(raw),
                                                CheckpointMsg::Kind::kDelta)
                       .encode();
                 }});
  replication::RepEnvelope env;
  env.type = replication::RepEnvelope::Type::kCheckpoint;
  env.payload = Payload(sample_full_checkpoint().encode());
  out.push_back({"RepEnvelope", env.encode(), [](std::span<const std::uint8_t> raw) {
                   return replication::RepEnvelope::decode(Payload::copy_of(raw)).encode();
                 }});
  replication::StateTransferMsg bundle;
  bundle.anchor = Payload(sample_full_checkpoint().encode());
  bundle.deltas = {Payload(sample_delta_checkpoint().encode())};
  out.push_back({"StateTransferMsg", bundle.encode(), [](std::span<const std::uint8_t> raw) {
                   return replication::StateTransferMsg::decode(Payload::copy_of(raw)).encode();
                 }});
  const replication::SwitchMsg sw{replication::ReplicationStyle::kColdPassive,
                                  ProcessId{11}};
  out.push_back({"SwitchMsg", sw.encode(), [](std::span<const std::uint8_t> raw) {
                   return replication::SwitchMsg::decode(raw).encode();
                 }});

  net::FaultPlan plan;
  plan.crash_process(msec(10), ProcessId{11});
  plan.partition_window(msec(20), msec(40), {NodeId{1}}, {NodeId{2}, NodeId{3}});
  plan.loss_burst(msec(5), msec(15), NodeId{1}, NodeId{2}, 0.25);
  out.push_back({"FaultPlan", plan.encode(), [](std::span<const std::uint8_t> raw) {
                   return net::FaultPlan::decode(raw).encode();
                 }});

  monitor::StateEntry entry;
  entry.reporter = ProcessId{11};
  entry.reported_at = msec(100);
  entry.cpu_load = 0.5;
  entry.request_rate = 120.0;
  entry.extra = {{"queue", 3.0}, {"rss", 1.5}};
  out.push_back({"StateEntry", entry.encode(), [](std::span<const std::uint8_t> raw) {
                   return monitor::StateEntry::decode(raw).encode();
                 }});

  replication::ReplyCache cache;
  cache.put({ProcessId{11}, 1}, Payload(filler_bytes(3, 0x66)));
  cache.put({ProcessId{12}, 2}, Payload(filler_bytes(2, 0x77)));
  out.push_back({"ReplyCache", cache.serialize_recent(cache.size()),
                 [](std::span<const std::uint8_t> raw) {
                   replication::ReplyCache restored;
                   restored.restore(Payload::copy_of(raw));
                   return restored.serialize_recent(restored.size());
                 }});
  return out;
}

}  // namespace vdep::wire_test
