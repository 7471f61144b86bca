// Fixed instances of every infrastructure wire encoding (the reliable link's
// frames included), checkpointed application state layout and CDR layout
// (GIOP messages with their FT service contexts, servant arguments and
// results), shared by the golden-bytes pin and the decoder mutation sweep.
// Each blob carries the codec's decode-then-encode round trip, so a test can
// both check that a blob survives decoding unchanged and feed the decoder
// mutated copies.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "app/test_app.hpp"
#include "gcs/message.hpp"
#include "gcs/reliable_link.hpp"
#include "gcs/view.hpp"
#include "monitor/replicated_state.hpp"
#include "net/fault_plan.hpp"
#include "orb/cdr.hpp"
#include "orb/giop.hpp"
#include "replication/reply_cache.hpp"
#include "replication/types.hpp"
#include "shard/directory.hpp"
#include "shard/shard_servant.hpp"
#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/wire.hpp"

namespace vdep::wire_test {

// An encoder's output as Bytes: the message encoders return Payloads, the
// servant APIs Bytes.
struct Encoded : Bytes {
  Encoded(Bytes bytes) : Bytes(std::move(bytes)) {}           // NOLINT
  Encoded(const Payload& frame) : Bytes(frame.to_bytes()) {}  // NOLINT
};

struct WireBlob {
  std::string name;
  Encoded bytes;
  // Decodes `raw` and encodes the result again; throws DecodeError when
  // `raw` is malformed.
  std::function<Encoded(std::span<const std::uint8_t>)> reencode;
};

inline Encoded reencode_inner(std::span<const std::uint8_t> raw) {
  return gcs::encode_inner(gcs::decode_inner(Payload::copy_of(raw)));
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

// Checkpointed application state: the servant's snapshot and delta encodings
// round-trip through restore -> snapshot and apply_delta -> snapshot_delta.
template <typename Servant>
Bytes reencode_snapshot(std::span<const std::uint8_t> raw) {
  Servant restored;
  restored.restore(raw);
  return restored.snapshot();
}

template <typename Servant>
Bytes reencode_delta(std::span<const std::uint8_t> raw) {
  Servant applied;
  const std::uint64_t base = applied.cut_epoch();
  applied.apply_delta(raw);
  return *applied.snapshot_delta(base);
}

inline void kv_put(app::KvStoreServant& store, const std::string& key,
                   const std::string& value) {
  (void)store.invoke("put", app::KvStoreServant::encode_put(key, value));
}

inline shard::ShardServant::Result shard_control(shard::ShardServant& servant,
                                                 const std::string& operation,
                                                 std::uint64_t id,
                                                 const shard::KeyRange* range = nullptr,
                                                 std::uint64_t post_epoch = 0,
                                                 std::uint64_t target = 0) {
  if (range == nullptr) return servant.invoke(operation, orb::cdr_encode<Bytes>(id));
  const shard::ShardServant::Migration m{id, *range, post_epoch, GroupId{target}};
  return servant.invoke(operation, orb::cdr_encode<Bytes>(m));
}

// A shard that has released one migration (done set, fence epoch) and is
// frozen mid-way through a second, holding the keys it kept: kiwi and date
// hash below 0x40000000, apple and lime into the frozen quarter, pear and
// fig into the released half.
inline void sample_shard(shard::ShardServant& servant) {
  for (const char* key : {"apple", "pear", "kiwi", "lime", "date", "fig"}) {
    const std::string value = std::string(key).substr(0, 2);
    (void)servant.invoke("put", shard::ShardServant::encode_data_args(1, key, &value));
  }
  const shard::KeyRange upper{0x80000000u, 0xffffffffu};
  (void)shard_control(servant, "shard.freeze", 1, &upper, 2, 9);
  (void)shard_control(servant, "shard.release", 1);
  const shard::KeyRange middle{0x40000000u, 0x7fffffffu};
  (void)shard_control(servant, "shard.freeze", 2, &middle, 3, 10);
}

// The pinned encodings, in a fixed order.
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
  const auto reencode_link = [](std::span<const std::uint8_t> raw) {
    return wire::encode(wire::decode<gcs::LinkFrame>(raw));
  };
  out.push_back({"LinkFrame.data",
                 wire::encode(gcs::LinkFrame{gcs::LinkFrame::Type::kData, 9,
                                             gcs::encode_inner(sample_ord_ack())}),
                 reencode_link});
  out.push_back({"LinkFrame.ack",
                 wire::encode(gcs::LinkFrame{gcs::LinkFrame::Type::kAck, 8, {}}),
                 reencode_link});

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
                   restored.restore(replication::ReplyCache::decode(Payload::copy_of(raw)));
                   return restored.serialize_recent(restored.size());
                 }});

  app::KvStoreServant kv;
  kv_put(kv, "alpha", "1");
  kv_put(kv, "beta", "22");
  kv_put(kv, "gamma", "");
  out.push_back({"KvStore.snapshot", kv.snapshot(),
                 reencode_snapshot<app::KvStoreServant>});
  const std::uint64_t kv_cut = kv.cut_epoch();
  kv_put(kv, "delta", "4444");
  kv_put(kv, "alpha", "55");
  (void)kv.invoke("erase", app::KvStoreServant::encode_key("beta"));
  (void)kv.invoke("erase", app::KvStoreServant::encode_key("omega"));
  out.push_back({"KvStore.delta", *kv.snapshot_delta(kv_cut),
                 reencode_delta<app::KvStoreServant>});

  shard::ShardServant sharded({{0, 0xffffffffu}}, 1);
  sample_shard(sharded);
  out.push_back({"ShardServant.snapshot", sharded.snapshot(),
                 reencode_snapshot<shard::ShardServant>});
  const std::uint64_t shard_cut = sharded.cut_epoch();
  const std::string value = "le";
  (void)sharded.invoke("put", shard::ShardServant::encode_data_args(3, "lemon", &value));
  (void)sharded.invoke("erase", shard::ShardServant::encode_data_args(3, "date", nullptr));
  out.push_back({"ShardServant.delta", *sharded.snapshot_delta(shard_cut),
                 reencode_delta<shard::ShardServant>});

  app::TestServant test_app({.state_bytes = 6, .reply_bytes = 16});
  (void)test_app.invoke("process", filler_bytes(4));
  out.push_back({"TestServant.snapshot", test_app.snapshot(),
                 reencode_snapshot<app::TestServant>});
  return out;
}

// --- CDR layouts ----------------------------------------------------------------

inline Encoded reencode_giop(std::span<const std::uint8_t> raw) {
  const orb::GiopMessage msg = orb::decode_giop(raw);
  if (msg.request) return msg.request->encode();
  if (msg.reply) return msg.reply->encode();
  throw DecodeError("GIOP message without a body");
}

// Servant arguments enter through a fresh servant's invoke(), which answers
// malformed arguments and never throws them out: a DecodeError escaping it
// fails the sweep, and arguments it rejects (`invoke` returns false) come
// back as DecodeError. Accepted arguments re-encode as themselves.
template <typename Invoke>
Bytes accepted_args(std::span<const std::uint8_t> raw, Invoke invoke) {
  const Bytes args(raw.begin(), raw.end());
  bool accepted = false;
  try {
    accepted = invoke(args);
  } catch (const DecodeError& e) {
    throw std::logic_error(std::string("DecodeError escaped invoke: ") + e.what());
  }
  if (!accepted) throw DecodeError("arguments rejected");
  return args;
}

inline bool kv_accepts(const std::string& operation, const Bytes& args) {
  app::KvStoreServant kv;
  return kv.invoke(operation, args).ok;
}

inline shard::ShardStatus reply_status(const Bytes& output) {
  return orb::cdr_decode<shard::StatusReply>(output).status;
}

inline bool shard_accepts(shard::ShardServant&& servant, const std::string& operation,
                          const Bytes& args) {
  return reply_status(servant.invoke(operation, args).output) !=
         shard::ShardStatus::kBadRequest;
}

inline shard::ShardMap sample_map() {
  return shard::ShardMap::uniform(2, 100, shard::ShardPolicy{});
}

// Results re-encode through their client-side decoders.
template <typename Decode>
auto reencode_result(Decode decode) {
  return [decode](std::span<const std::uint8_t> raw) {
    return orb::cdr_encode<Bytes>(decode(Bytes(raw.begin(), raw.end())));
  };
}

// The pinned CDR encodings, in a fixed order.
inline std::vector<WireBlob> cdr_blobs() {
  std::vector<WireBlob> out;

  orb::RequestMessage request;
  request.request_id = 42;
  request.object_key = ObjectId{1};
  request.operation = "put";
  const orb::FtRequestContext ft{ProcessId{11}, 42, NodeId{2}, msec(30000)};
  request.service_contexts = {ft.to_context(),
                              orb::to_context(orb::kTraceContextId,
                                              obs::TraceContext{0x7777, 0x8888})};
  request.body = app::KvStoreServant::encode_put("alpha", "1");
  out.push_back({"GIOP.Request", request.encode(), reencode_giop});
  orb::ReplyMessage reply;
  reply.request_id = 42;
  reply.service_contexts = {
      orb::to_context(orb::kFtGroupVersionContextId, orb::FtGroupVersion{4, 3, 1})};
  reply.body = Bytes{1};
  out.push_back({"GIOP.Reply", reply.encode(), reencode_giop});

  app::KvStoreServant kv;
  const Bytes put_args = app::KvStoreServant::encode_put("alpha", "1");
  (void)kv.invoke("put", put_args);
  out.push_back({"KvStore.put.args", put_args, [](std::span<const std::uint8_t> raw) {
                   return accepted_args(raw, [](const Bytes& a) { return kv_accepts("put", a); });
                 }});
  out.push_back({"KvStore.put.result", kv.invoke("put", put_args).output,
                 reencode_result(app::KvStoreServant::decode_flag)});
  const Bytes get_args = app::KvStoreServant::encode_key("alpha");
  out.push_back({"KvStore.get.args", get_args, [](std::span<const std::uint8_t> raw) {
                   return accepted_args(raw, [](const Bytes& a) { return kv_accepts("get", a); });
                 }});
  out.push_back({"KvStore.get.result", kv.invoke("get", get_args).output,
                 reencode_result(app::KvStoreServant::decode_get)});

  const std::string value = "le";
  const Bytes data_args = shard::ShardServant::encode_data_args(3, "lemon", &value);
  shard::ShardServant owner({{0, 0xffffffffu}}, 1);
  out.push_back({"ShardServant.put.args", data_args, [](std::span<const std::uint8_t> raw) {
                   return accepted_args(raw, [](const Bytes& a) {
                     return shard_accepts(shard::ShardServant({{0, 0xffffffffu}}, 1), "put", a);
                   });
                 }});
  out.push_back({"ShardServant.put.reply", owner.invoke("put", data_args).output,
                 reencode_result(shard::ShardServant::decode_data_reply)});

  const shard::KeyRange upper{0x80000000u, 0xffffffffu};
  const Bytes freeze =
      orb::cdr_encode<Bytes>(shard::ShardServant::Migration{1, upper, 2, GroupId{9}});
  out.push_back({"ShardServant.freeze.args", freeze,
                 [](std::span<const std::uint8_t> raw) {
                   return accepted_args(raw, [](const Bytes& a) {
                     return shard_accepts(shard::ShardServant({{0, 0xffffffffu}}, 1),
                                          "shard.freeze", a);
                   });
                 }});
  const Bytes pear_args = shard::ShardServant::encode_data_args(3, "pear", &value);
  (void)owner.invoke("put", pear_args);  // pear hashes into the frozen half
  (void)owner.invoke("shard.freeze", freeze);
  const Bytes bundle =
      shard::ShardServant::decode_data_reply(shard_control(owner, "shard.donate", 1).output)
          .result;
  out.push_back({"ShardServant.install.args",
                 orb::cdr_encode<Bytes>(shard::ShardServant::InstallArgs{1, upper, 2, bundle}),
                 [](std::span<const std::uint8_t> raw) {
                   return accepted_args(raw, [](const Bytes& a) {
                     return shard_accepts(shard::ShardServant(), "shard.install", a);
                   });
                 }});

  const shard::ShardMap next =
      sample_map().split(1, 0xc0000000u, GroupId{9}, shard::ShardPolicy{});
  out.push_back({"Directory.commit.args", shard::DirectoryServant::encode_commit(next),
                 [](std::span<const std::uint8_t> raw) {
                   return accepted_args(raw, [](const Bytes& a) {
                     shard::DirectoryServant directory(sample_map());
                     return reply_status(directory.invoke("dir.commit", a).output) !=
                            shard::ShardStatus::kBadRequest;
                   });
                 }});

  app::TestServant test_app({.state_bytes = 6, .reply_bytes = 32});
  out.push_back({"TestServant.process.reply", test_app.invoke("process", filler_bytes(4)).output,
                 reencode_result(app::ProcessReply::decode)});
  return out;
}

}  // namespace vdep::wire_test
