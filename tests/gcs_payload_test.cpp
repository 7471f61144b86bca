// Tests for the zero-copy message path: Payload sharing semantics, the
// owner-aware decode path (sub-views aliasing the received frame), and the
// encode-once fan-out invariant at the daemon layer.
#include <gtest/gtest.h>

#include "gcs/endpoint.hpp"
#include "gcs/message.hpp"
#include "harness/fabric.hpp"
#include "util/payload.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"
#include "written.hpp"

namespace vdep::gcs {
namespace {

// --- Payload unit semantics --------------------------------------------------

TEST(Payload, AdoptMoveSharesOnCopy) {
  Bytes buf = filler_bytes(64);
  const std::uint8_t* raw = buf.data();
  Payload p(std::move(buf));
  EXPECT_EQ(p.size(), 64u);
  EXPECT_EQ(p.data(), raw);  // adoption moves the vector, no byte copy
  EXPECT_EQ(p.use_count(), 1);

  Payload q = p;  // refcount bump, same bytes
  EXPECT_EQ(q.data(), p.data());
  EXPECT_EQ(p.use_count(), 2);
  EXPECT_EQ(q.use_count(), 2);
  EXPECT_EQ(p, q);
}

TEST(Payload, CopyOfDeepCopies) {
  Bytes buf = filler_bytes(16);
  Payload p = Payload::copy_of(buf);
  EXPECT_NE(p.data(), buf.data());
  EXPECT_EQ(p, buf);
  buf[0] ^= 0xff;  // mutating the source must not affect the copy
  EXPECT_NE(p, buf);
}

TEST(Payload, AliasingViewKeepsOwnerAlive) {
  Payload sub;
  {
    Payload frame(filler_bytes(100));
    sub = Payload(frame.owner(), frame.view().subspan(10, 20));
    EXPECT_EQ(frame.use_count(), 2);
  }
  // The frame Payload is gone; the aliasing view still owns the buffer.
  EXPECT_EQ(sub.use_count(), 1);
  EXPECT_EQ(sub.size(), 20u);
  const Bytes reference = filler_bytes(100);
  EXPECT_EQ(sub, Bytes(reference.begin() + 10, reference.begin() + 30));
}

TEST(Payload, ReadPayloadAliasesOwnedFrameAndCopiesUnowned) {
  const Bytes encoded =
      testing::written<ByteWriter>([](auto& w) { w.bytes(filler_bytes(40)); });

  {  // Owner-aware reader: the result aliases the frame.
    Payload frame{Bytes(encoded)};
    wire::Reader r(frame);
    Payload inner = r.read<Payload>();
    EXPECT_EQ(inner, filler_bytes(40));
    EXPECT_GE(inner.data(), frame.data());
    EXPECT_LE(inner.data() + inner.size(), frame.data() + frame.size());
    EXPECT_EQ(frame.use_count(), 3);  // frame + the reader's keepalive + inner
  }
  {  // Plain-span reader: the result must be an independent deep copy.
    wire::Reader r(encoded);
    Payload inner = r.read<Payload>();
    EXPECT_EQ(inner, filler_bytes(40));
    EXPECT_TRUE(inner.data() < encoded.data() ||
                inner.data() >= encoded.data() + encoded.size());
  }
}

// --- InnerMsg round-trip property test --------------------------------------

// Randomized payload sizes spanning empty, tiny, fragment-sized, and >64 KiB
// (length prefixes are u32, so sizes past 16-bit boundaries must survive).
std::vector<std::size_t> random_sizes(Rng& rng) {
  std::vector<std::size_t> sizes = {0, 1, 65536 + 1337};  // always-on edges
  for (int i = 0; i < 5; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.next() % 70000));
  }
  return sizes;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 0xff);
  return out;
}

TEST(InnerMsgProperty, ForwardRoundTripRandomizedSizes) {
  Rng rng(0xf00d);
  for (std::size_t n : random_sizes(rng)) {
    Forward f;
    f.group = GroupId{rng.next() % 100};
    f.kind = static_cast<Forward::Kind>(rng.next() % 4);
    f.svc = static_cast<ServiceType>(rng.next() % 3);
    f.origin = OriginId{ProcessId{rng.next() % 1000}, rng.next()};
    f.origin_daemon = NodeId{rng.next() % 64};
    Bytes body = random_bytes(rng, n);
    f.payload = Payload::copy_of(body);

    EXPECT_EQ(inner_payload_size(InnerMsg{f}), n);
    Payload frame = encode_inner(f);
    auto decoded = decode_inner(frame);
    auto* d = std::get_if<Forward>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->group, f.group);
    EXPECT_EQ(d->kind, f.kind);
    EXPECT_EQ(d->svc, f.svc);
    EXPECT_EQ(d->origin, f.origin);
    EXPECT_EQ(d->origin_daemon, f.origin_daemon);
    EXPECT_EQ(d->payload, body);
    EXPECT_EQ(inner_payload_size(decoded), n);
    if (n > 0) {
      // Zero-copy receive: the decoded payload aliases the frame.
      EXPECT_GE(d->payload.data(), frame.data());
      EXPECT_LE(d->payload.data() + d->payload.size(), frame.data() + frame.size());
    }
  }
}

TEST(InnerMsgProperty, OrderedRoundTripRandomizedSizes) {
  Rng rng(0xbeef);
  for (std::size_t n : random_sizes(rng)) {
    Ordered o;
    o.group = GroupId{rng.next() % 100};
    o.epoch = rng.next();
    o.seq = rng.next();
    o.kind = static_cast<Ordered::Kind>(rng.next() % 2);
    o.svc = static_cast<ServiceType>(rng.next() % 3);
    o.origin = OriginId{ProcessId{rng.next() % 1000}, rng.next()};
    o.origin_daemon = NodeId{rng.next() % 64};
    o.prev_epoch_end = rng.next();
    o.stable_upto = rng.next();
    Bytes body = random_bytes(rng, n);
    o.payload = Payload::copy_of(body);

    EXPECT_EQ(inner_payload_size(InnerMsg{o}), n);
    Payload frame = encode_inner(o);
    auto decoded = decode_inner(frame);
    auto* d = std::get_if<Ordered>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->epoch, o.epoch);
    EXPECT_EQ(d->seq, o.seq);
    EXPECT_EQ(d->kind, o.kind);
    EXPECT_EQ(d->prev_epoch_end, o.prev_epoch_end);
    EXPECT_EQ(d->stable_upto, o.stable_upto);
    EXPECT_EQ(d->payload, body);
    EXPECT_EQ(inner_payload_size(decoded), n);
  }
}

TEST(InnerMsgProperty, PrivateMsgRoundTripRandomizedSizes) {
  Rng rng(0xcafe);
  for (std::size_t n : random_sizes(rng)) {
    PrivateMsg p;
    p.sender = ProcessId{rng.next() % 1000};
    p.sender_daemon = NodeId{rng.next() % 64};
    p.destination = ProcessId{rng.next() % 1000};
    Bytes body = random_bytes(rng, n);
    p.payload = Payload::copy_of(body);

    EXPECT_EQ(inner_payload_size(InnerMsg{p}), n);
    auto decoded = decode_inner(encode_inner(p));
    auto* d = std::get_if<PrivateMsg>(&decoded);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->sender, p.sender);
    EXPECT_EQ(d->sender_daemon, p.sender_daemon);
    EXPECT_EQ(d->destination, p.destination);
    EXPECT_EQ(d->payload, body);
  }
}

TEST(InnerMsgProperty, ControlMessagesAndSyncStateRoundTrip) {
  Rng rng(0xd00d);
  for (int iter = 0; iter < 8; ++iter) {
    {
      OrdAck a{NodeId{rng.next() % 64}, GroupId{rng.next() % 100}, rng.next(),
               rng.next()};
      auto decoded = decode_inner(encode_inner(a));
      auto* d = std::get_if<OrdAck>(&decoded);
      ASSERT_NE(d, nullptr);
      EXPECT_EQ(d->from, a.from);
      EXPECT_EQ(d->group, a.group);
      EXPECT_EQ(d->epoch, a.epoch);
      EXPECT_EQ(d->seq, a.seq);
      EXPECT_EQ(inner_payload_size(decoded), 0u);
    }
    {
      StableMsg s{GroupId{rng.next() % 100}, rng.next(), rng.next()};
      auto decoded = decode_inner(encode_inner(s));
      auto* d = std::get_if<StableMsg>(&decoded);
      ASSERT_NE(d, nullptr);
      EXPECT_EQ(d->group, s.group);
      EXPECT_EQ(d->epoch, s.epoch);
      EXPECT_EQ(d->upto, s.upto);
    }
    {
      Takeover t{rng.next(), NodeId{rng.next() % 64}};
      auto decoded = decode_inner(encode_inner(t));
      auto* d = std::get_if<Takeover>(&decoded);
      ASSERT_NE(d, nullptr);
      EXPECT_EQ(d->term, t.term);
      EXPECT_EQ(d->leader, t.leader);
    }
    {
      FwdAck f{GroupId{rng.next() % 100}, OriginId{ProcessId{rng.next() % 1000},
                                                   rng.next()}};
      auto decoded = decode_inner(encode_inner(f));
      auto* d = std::get_if<FwdAck>(&decoded);
      ASSERT_NE(d, nullptr);
      EXPECT_EQ(d->group, f.group);
      EXPECT_EQ(d->origin, f.origin);
    }
    {
      SyncState st;
      st.term = rng.next();
      st.from = NodeId{rng.next() % 64};
      Ordered o;
      o.group = GroupId{1};
      o.seq = rng.next();
      o.payload = Payload::copy_of(random_bytes(rng, rng.next() % 2000));
      st.buffered.push_back(o);
      Forward f;
      f.group = GroupId{1};
      f.origin = OriginId{ProcessId{9}, rng.next()};
      f.payload = Payload::copy_of(random_bytes(rng, rng.next() % 2000));
      st.pending.push_back(f);
      View v;
      v.group = GroupId{1};
      v.view_id = rng.next();
      st.views.push_back(v);
      st.acks.push_back(OrdAck{st.from, GroupId{1}, 1, rng.next()});

      const std::size_t expected =
          st.buffered[0].payload.size() + st.pending[0].payload.size();
      EXPECT_EQ(inner_payload_size(InnerMsg{st}), expected);
      auto decoded = decode_inner(encode_inner(st));
      auto* d = std::get_if<SyncState>(&decoded);
      ASSERT_NE(d, nullptr);
      EXPECT_EQ(d->term, st.term);
      ASSERT_EQ(d->buffered.size(), 1u);
      EXPECT_EQ(d->buffered[0].seq, o.seq);
      EXPECT_EQ(d->buffered[0].payload, o.payload);
      ASSERT_EQ(d->pending.size(), 1u);
      EXPECT_EQ(d->pending[0].payload, f.payload);
      ASSERT_EQ(d->views.size(), 1u);
      EXPECT_EQ(d->views[0].view_id, v.view_id);
      EXPECT_EQ(inner_payload_size(decoded), expected);
    }
  }
}

// --- daemon-level fan-out invariants -----------------------------------------

const GroupId kGroup{1};

struct FanoutMember {
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<Endpoint> endpoint;
  std::vector<GroupMessage> delivered;
};

struct FanoutWorld {
  void build(int hosts, std::uint64_t seed = 1) {
    fabric = std::make_unique<harness::Fabric>(
        harness::FabricConfig{.seed = seed, .server_hosts = hosts});
    kernel = &fabric->kernel();
    network = &fabric->network();
  }

  FanoutMember& add_member(NodeId host, std::uint64_t pid) {
    auto m = std::make_unique<FanoutMember>();
    m->process = std::make_unique<sim::Process>(*kernel, ProcessId{pid}, host,
                                                "m" + std::to_string(pid));
    m->endpoint = std::make_unique<Endpoint>(fabric->daemon_on(host), *m->process);
    FanoutMember* raw = m.get();
    m->endpoint->set_message_handler(
        [raw](const GroupMessage& gm) { raw->delivered.push_back(gm); });
    members.push_back(std::move(m));
    return *members.back();
  }

  // Daemons on hosts 0..N-1 with PIDs 100+host; host 0 is the leader.
  std::unique_ptr<harness::Fabric> fabric;
  sim::Kernel* kernel = nullptr;
  net::Network* network = nullptr;
  std::vector<std::unique_ptr<FanoutMember>> members;
};

// One broadcast to N member daemons must encode the Ordered frame exactly
// once (and the stability watermark exactly once) — not once per destination.
// The full per-multicast encode budget, with the leader on host 0 and one
// member on each of hosts 1..N:
//   1  Forward     origin daemon -> leader
//   1  Ordered     leader -> N member daemons (THE fan-out frame, shared)
//   1  FwdAck      leader -> origin daemon
//   N  OrdAck      each member daemon -> leader
//   1  StableMsg   leader -> N member daemons (shared)
// Total: N + 4. A per-destination encoder would burn 3N + 2.
std::uint64_t fanout_encode_delta(int member_daemons) {
  FanoutWorld w;
  w.build(member_daemons + 1);
  std::vector<FanoutMember*> ms;
  for (int i = 0; i < member_daemons; ++i) {
    ms.push_back(&w.add_member(NodeId{static_cast<std::uint64_t>(i + 1)},
                               10 + static_cast<std::uint64_t>(i)));
  }
  for (auto* m : ms) m->endpoint->join(kGroup);
  w.kernel->run_until(msec(300));  // quiesce: joins, views, stability all settle

  const std::uint64_t before = encode_inner_count();
  ms[0]->endpoint->multicast(kGroup, ServiceType::kAgreed, filler_bytes(256));
  w.kernel->run_until(msec(600));
  for (auto* m : ms) {
    EXPECT_EQ(m->delivered.size(), 1u);  // sanity: the broadcast landed
  }
  return encode_inner_count() - before;
}

TEST(EncodeOnceFanout, BroadcastEncodesFrameOncePerMessageNotPerDestination) {
  const std::uint64_t delta2 = fanout_encode_delta(2);
  const std::uint64_t delta4 = fanout_encode_delta(4);
  EXPECT_EQ(delta2, 2u + 4u);
  EXPECT_EQ(delta4, 4u + 4u);
  // Growing the destination set only adds the per-member acks; the data and
  // stability frames are encoded once regardless of fan-out width.
  EXPECT_EQ(delta4 - delta2, 2u);
}

TEST(BufferSharing, CoLocatedMembersShareOneDeliveredBuffer) {
  FanoutWorld w;
  w.build(3);
  // Two members on the same daemon plus one remote: local deliveries of the
  // same ordered message must hand out views of one buffer, not copies.
  auto& m1 = w.add_member(NodeId{1}, 10);
  auto& m2 = w.add_member(NodeId{1}, 11);
  auto& m3 = w.add_member(NodeId{2}, 12);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  m3.endpoint->join(kGroup);
  w.kernel->run_until(msec(300));

  m3.endpoint->multicast(kGroup, ServiceType::kAgreed, filler_bytes(512));
  w.kernel->run_until(msec(600));

  ASSERT_EQ(m1.delivered.size(), 1u);
  ASSERT_EQ(m2.delivered.size(), 1u);
  ASSERT_EQ(m3.delivered.size(), 1u);
  EXPECT_EQ(m1.delivered[0].payload, filler_bytes(512));
  // Same daemon, same delivery: byte-identical *and* pointer-identical.
  EXPECT_EQ(m1.delivered[0].payload.data(), m2.delivered[0].payload.data());
  // The retained copies share the buffer with each other (and whatever the
  // daemon still holds for stability) — never 1 exclusive owner each.
  EXPECT_GE(m1.delivered[0].payload.use_count(), 2);
}

}  // namespace
}  // namespace vdep::gcs
