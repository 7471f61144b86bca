// Golden-bytes pin for the wire encodings: the FNV-1a hash of a fixed
// instance of every infrastructure message, every checkpointed app layout
// and every CDR layout. A round trip cannot see a field order
// that changes symmetrically in encoder and decoder; these hashes can.
// Re-baseline only for a deliberate wire-format change.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/rng.hpp"
#include "wire_blobs.hpp"

namespace vdep::wire_test {
namespace {

TEST(WireBytes, GoldenEncodingsAndRoundTrips) {
  const std::map<std::string, std::uint64_t> expected = {
      {"Forward", 0x6b91679d2f267575ULL},
      {"Ordered", 0xe4e521cb693e804dULL},
      {"OrdAck", 0x6eb663c7d1bf901bULL},
      {"StableMsg", 0x53af43adc2da5098ULL},
      {"Takeover", 0x7ebfb4cd194dcec5ULL},
      {"SyncState", 0x3701cbc4ad0a3189ULL},
      {"PrivateMsg", 0x9109a4b547a33f9fULL},
      {"FwdAck", 0x94420547c12e5bd8ULL},
      {"LinkFrame.data", 0x62744cdcc549c04cULL},
      {"LinkFrame.ack", 0x4694e996d221583dULL},
      {"View", 0x0df2772755ae3c7fULL},
      {"CheckpointMsg.full", 0xa26a4391eb95cf0fULL},
      {"CheckpointMsg.delta", 0x4cbe59abf5a9edeeULL},
      {"RepEnvelope", 0xe725efcac4fadcebULL},
      {"StateTransferMsg", 0xae3bf0e7e943235bULL},
      {"SwitchMsg", 0x23aa2c46b02fb10eULL},
      {"FaultPlan", 0x1f3c6a42a831c7c9ULL},
      {"StateEntry", 0x62b35f5a2fbe28feULL},
      {"ReplyCache", 0x337bf9ce7ce7bb7bULL},
      {"KvStore.snapshot", 0x83734cade739e45fULL},
      {"KvStore.delta", 0xac3adf6dcd23c140ULL},
      {"ShardServant.snapshot", 0x805481236c3229e7ULL},
      {"ShardServant.delta", 0xfd4ded8206d43dc9ULL},
      {"TestServant.snapshot", 0x6854f7709cff2094ULL},
      {"GIOP.Request", 0x184688fa282dc39cULL},
      {"GIOP.Reply", 0x850ce10a1d9098aeULL},
      {"KvStore.put.args", 0xc5c40232dbc3d3e4ULL},
      {"KvStore.put.result", 0xaf63bc4c8601b62cULL},
      {"KvStore.get.args", 0x08c6a780051b9b4fULL},
      {"KvStore.get.result", 0x0b01352e7a17d48fULL},
      {"ShardServant.put.args", 0xaaca6af687cca7b7ULL},
      {"ShardServant.put.reply", 0xd9559f0fa740bf5cULL},
      {"ShardServant.freeze.args", 0x3396ae40f821a9abULL},
      {"ShardServant.install.args", 0xf6c5c9433027e859ULL},
      {"Directory.commit.args", 0xe108e89c6e353ebeULL},
      {"TestServant.process.reply", 0x7f29a88d23db2cb1ULL},
  };
  auto blobs = wire_blobs();
  for (auto& blob : cdr_blobs()) blobs.push_back(std::move(blob));
  ASSERT_EQ(blobs.size(), expected.size());
  for (const auto& blob : blobs) {
    SCOPED_TRACE(blob.name);
    ASSERT_TRUE(expected.contains(blob.name));
    EXPECT_EQ(fnv1a(blob.bytes), expected.at(blob.name))
        << std::hex << "0x" << fnv1a(blob.bytes) << " (" << std::dec << blob.bytes.size()
        << " bytes)";
    EXPECT_EQ(blob.reencode(blob.bytes), blob.bytes);
  }
}

// The size pass over the value a pin decodes to, and that value written by
// the single-block encoder.
struct Sized {
  std::size_t size = 0;
  Bytes bytes;
};

template <typename Sink = ByteWriter, typename... T>
Sized sized(const T&... fields) {
  return {wire::encoded_size<Sink>(fields...),
          wire::encode_with<Payload, Sink>(fields...).to_bytes()};
}

template <typename T>
Sized sized_wire(std::span<const std::uint8_t> raw) {
  return sized(wire::decode<T>(raw));
}

template <typename T>
Sized sized_cdr(std::span<const std::uint8_t> raw) {
  return sized<orb::CdrWriter>(orb::cdr_decode<T>(raw));
}

// Arguments of a KV operation: the operation, known from its name, picks
// the fields that follow.
template <typename Args>
Sized sized_put_args(std::span<const std::uint8_t> raw) {
  Args into;
  if constexpr (std::is_same_v<Args, app::KvArgs>) {
    into.op = app::KvOp::kPut;
  } else {
    into.kv.op = app::KvOp::kPut;
  }
  return sized<orb::CdrWriter>(orb::cdr_decode(raw, std::move(into)));
}

Sized sized_inner(std::span<const std::uint8_t> raw) {
  const gcs::InnerMsg msg = gcs::decode_inner(raw);
  const auto tag = static_cast<std::uint8_t>(msg.index() + 1);
  return std::visit([tag](const auto& m) { return sized(tag, m); }, msg);
}

// A GIOP message is sized with its header, whose size field the encoder
// fills from the size pass: the size pass's length less the 12 header bytes.
Sized sized_giop(std::span<const std::uint8_t> raw) {
  const orb::GiopMessage msg = orb::decode_giop(raw);
  const Payload encoded = msg.request ? msg.request->encode() : msg.reply->encode();
  ByteReader header(encoded.view().subspan(8, 4));
  return {12 + std::size_t{header.u32()}, encoded.to_bytes()};
}

Sized sized_checkpoint(std::span<const std::uint8_t> raw, replication::CheckpointMsg::Kind kind) {
  return sized(replication::CheckpointMsg::decode(Payload::copy_of(raw), kind));
}

// A shard snapshot or delta: the control state as a blob written in place,
// then the store's bytes. The control state's own size pass is what
// state_size() adds to the store's.
struct ShardFrame {
  Bytes control;
  Bytes inner;

  template <typename IO>
  friend void wire_fields(IO& io, ShardFrame& m) {
    io(m.control, m.inner);
  }
};

Sized sized_shard_frame(std::span<const std::uint8_t> raw, bool delta) {
  const auto frame = wire::decode<ShardFrame>(raw);
  shard::ShardServant restored;
  if (delta) {
    restored.apply_delta(raw);
  } else {
    restored.restore(raw);
  }
  EXPECT_EQ(restored.state_size() - restored.store().state_size(), frame.control.size());
  return sized(frame);
}

const std::map<std::string, std::function<Sized(std::span<const std::uint8_t>)>>& sizing() {
  using replication::CheckpointMsg;
  static const std::map<std::string, std::function<Sized(std::span<const std::uint8_t>)>> m = {
      {"Forward", sized_inner},
      {"Ordered", sized_inner},
      {"OrdAck", sized_inner},
      {"StableMsg", sized_inner},
      {"Takeover", sized_inner},
      {"SyncState", sized_inner},
      {"PrivateMsg", sized_inner},
      {"FwdAck", sized_inner},
      {"LinkFrame.data", sized_wire<gcs::LinkFrame>},
      {"LinkFrame.ack", sized_wire<gcs::LinkFrame>},
      {"View", sized_wire<gcs::View>},
      {"CheckpointMsg.full",
       [](auto raw) { return sized_checkpoint(raw, CheckpointMsg::Kind::kFull); }},
      {"CheckpointMsg.delta",
       [](auto raw) { return sized_checkpoint(raw, CheckpointMsg::Kind::kDelta); }},
      {"RepEnvelope", sized_wire<replication::RepEnvelope>},
      {"StateTransferMsg", sized_wire<replication::StateTransferMsg>},
      {"SwitchMsg", sized_wire<replication::SwitchMsg>},
      {"FaultPlan", sized_wire<net::FaultPlan>},
      {"StateEntry", sized_wire<monitor::StateEntry>},
      {"ReplyCache", sized_wire<replication::ReplyCache::Replies>},
      {"KvStore.snapshot", sized_wire<app::KvItems<std::map<std::string, std::string>>>},
      {"KvStore.delta", sized_wire<app::KvDelta<std::string>>},
      {"ShardServant.snapshot", [](auto raw) { return sized_shard_frame(raw, false); }},
      {"ShardServant.delta", [](auto raw) { return sized_shard_frame(raw, true); }},
      {"TestServant.snapshot",
       [](auto raw) {
         app::TestServant restored;
         restored.restore(raw);
         return sized(restored);
       }},
      {"GIOP.Request", sized_giop},
      {"GIOP.Reply", sized_giop},
      {"KvStore.put.args", sized_put_args<app::KvArgs>},
      {"KvStore.put.result", sized_cdr<bool>},
      {"KvStore.get.args", sized_cdr<app::KvArgs>},  // a get: the key only
      {"KvStore.get.result", sized_cdr<app::KvGot<std::string>>},
      {"ShardServant.put.args", sized_put_args<shard::ShardServant::DataArgs>},
      {"ShardServant.put.reply", sized_cdr<shard::ResultReply>},
      {"ShardServant.freeze.args", sized_cdr<shard::ShardServant::Migration>},
      {"ShardServant.install.args", sized_cdr<shard::ShardServant::InstallArgs>},
      {"Directory.commit.args", sized_cdr<Bytes>},
      {"TestServant.process.reply", sized_cdr<app::ProcessReply>},
  };
  return m;
}

// Every pin's length is what the size pass computes for the value it
// decodes to, and the single-block encoder writes that value back as the
// pinned bytes.
TEST(WireBytes, SizePassMatchesEveryPin) {
  auto blobs = wire_blobs();
  for (auto& blob : cdr_blobs()) blobs.push_back(std::move(blob));
  ASSERT_EQ(blobs.size(), sizing().size());
  for (const auto& blob : blobs) {
    SCOPED_TRACE(blob.name);
    ASSERT_TRUE(sizing().contains(blob.name));
    const Sized s = sizing().at(blob.name)(blob.bytes);
    EXPECT_EQ(s.size, blob.bytes.size());
    EXPECT_EQ(s.bytes, blob.bytes);
  }
}

Payload random_payload(Rng& rng) {
  return Payload(filler_bytes(rng.below(300), static_cast<std::uint8_t>(rng.below(256))));
}

obs::TraceContext random_trace(Rng& rng) { return {rng.next(), rng.next()}; }

gcs::Forward random_forward(Rng& rng) {
  gcs::Forward f;
  f.group = GroupId{rng.below(100)};
  f.kind = static_cast<gcs::Forward::Kind>(rng.below(4));
  f.svc = static_cast<gcs::ServiceType>(rng.below(6));
  f.origin = {ProcessId{rng.below(1000)}, rng.next()};
  f.origin_daemon = NodeId{rng.below(50)};
  f.payload = random_payload(rng);
  f.trace = random_trace(rng);
  return f;
}

gcs::Ordered random_ordered(Rng& rng) {
  gcs::Ordered o;
  o.group = GroupId{rng.below(100)};
  o.epoch = rng.next();
  o.seq = rng.next();
  o.kind = static_cast<gcs::Ordered::Kind>(rng.below(2));
  o.svc = static_cast<gcs::ServiceType>(rng.below(6));
  o.origin = {ProcessId{rng.below(1000)}, rng.next()};
  o.origin_daemon = NodeId{rng.below(50)};
  o.payload = random_payload(rng);
  o.prev_epoch_end = rng.next();
  o.stable_upto = rng.next();
  o.trace = random_trace(rng);
  return o;
}

gcs::OrdAck random_ack(Rng& rng) {
  return {NodeId{rng.below(50)}, GroupId{rng.below(100)}, rng.next(), rng.next()};
}

gcs::InnerMsg random_inner(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return random_forward(rng);
    case 1: return random_ordered(rng);
    case 2: return random_ack(rng);
    case 3: return gcs::StableMsg{GroupId{rng.below(100)}, rng.next(), rng.next()};
    case 4: return gcs::Takeover{rng.next(), NodeId{rng.below(50)}};
    case 5: {
      gcs::SyncState st;
      st.term = rng.next();
      st.from = NodeId{rng.below(50)};
      for (std::uint64_t i = rng.below(3); i > 0; --i) st.buffered.push_back(random_ordered(rng));
      for (std::uint64_t i = rng.below(3); i > 0; --i) st.pending.push_back(random_forward(rng));
      for (std::uint64_t i = rng.below(3); i > 0; --i) {
        gcs::View v;
        v.group = GroupId{rng.below(100)};
        v.view_id = rng.next();
        for (std::uint64_t m = rng.below(5); m > 0; --m) {
          v.members.push_back({ProcessId{rng.below(1000)}, NodeId{rng.below(50)}});
        }
        st.views.push_back(std::move(v));
      }
      for (std::uint64_t i = rng.below(3); i > 0; --i) st.acks.push_back(random_ack(rng));
      return st;
    }
    case 6: {
      gcs::PrivateMsg p;
      p.sender = ProcessId{rng.below(1000)};
      p.sender_daemon = NodeId{rng.below(50)};
      p.destination = ProcessId{rng.below(1000)};
      p.payload = random_payload(rng);
      p.trace = random_trace(rng);
      return p;
    }
    default: return gcs::FwdAck{GroupId{rng.below(100)}, {ProcessId{rng.below(1000)}, rng.next()}};
  }
}

// Seeded inner messages of every kind: the single-block encoder fills
// exactly the size pass's length, and the frame decodes to a message that
// encodes to the same bytes.
TEST(WireBytes, SizePassMatchesRandomInnerMessages) {
  Rng rng(0x5172e);
  for (int i = 0; i < 400; ++i) {
    const gcs::InnerMsg msg = random_inner(rng);
    SCOPED_TRACE("message " + std::to_string(i) + ", kind " + std::to_string(msg.index()));
    const auto tag = static_cast<std::uint8_t>(msg.index() + 1);
    const std::size_t size =
        std::visit([tag](const auto& m) { return wire::encoded_size<ByteWriter>(tag, m); }, msg);
    const Payload frame = gcs::encode_inner(msg);
    EXPECT_EQ(frame.size(), size);
    EXPECT_EQ(gcs::encode_inner(gcs::decode_inner(frame)), frame);
  }
}

// Seeded GIOP requests and replies with any number of service contexts and
// bodies of any length, odd ones included: CDR alignment depends on where
// each field lands, and the size pass must track it from the stream start.
TEST(WireBytes, SizePassMatchesRandomGiopMessages) {
  Rng rng(0x6109);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE("message " + std::to_string(i));
    std::vector<orb::ServiceContext> contexts;
    for (std::uint64_t c = rng.below(6); c > 0; --c) {
      contexts.push_back({static_cast<std::uint32_t>(rng.next()),
                          Payload(filler_bytes(rng.below(40), static_cast<std::uint8_t>(c)))});
    }
    const Bytes body = filler_bytes(rng.below(200), static_cast<std::uint8_t>(i));
    Payload encoded;
    if (rng.chance(0.5)) {
      orb::RequestMessage req;
      req.request_id = static_cast<std::uint32_t>(rng.next());
      req.response_expected = rng.chance(0.5);
      req.object_key = ObjectId{rng.next()};
      req.operation = std::string(rng.below(20), 'o');
      req.service_contexts = std::move(contexts);
      req.body = Payload({}, body);
      encoded = req.encode();
      const orb::GiopMessage back = orb::decode_giop(encoded);
      ASSERT_TRUE(back.request.has_value());
      EXPECT_EQ(back.request->service_contexts, req.service_contexts);
      EXPECT_EQ(back.request->body, body);
      EXPECT_EQ(back.request->encode(), encoded);
    } else {
      orb::ReplyMessage rep;
      rep.request_id = static_cast<std::uint32_t>(rng.next());
      rep.status = static_cast<orb::ReplyStatus>(rng.below(4));
      rep.service_contexts = std::move(contexts);
      rep.body = Payload({}, body);
      encoded = rep.encode();
      const orb::GiopMessage back = orb::decode_giop(encoded);
      ASSERT_TRUE(back.reply.has_value());
      EXPECT_EQ(back.reply->service_contexts, rep.service_contexts);
      EXPECT_EQ(back.reply->body, body);
      EXPECT_EQ(back.reply->encode(), encoded);
    }
    const Sized s = sized_giop(encoded);
    EXPECT_EQ(s.size, encoded.size());
    EXPECT_EQ(s.bytes, encoded);
    // The body starts on an 8-byte boundary of the stream and ends it.
    EXPECT_EQ((encoded.size() - body.size()) % 8, 0u);
  }
}

}  // namespace
}  // namespace vdep::wire_test
