// Unit tests for the replicator's building blocks: reply cache, message log,
// quiescence tracking, envelope/checkpoint codecs, and the test application's
// state machine.
#include <gtest/gtest.h>

#include "app/test_app.hpp"
#include "replication/checkpoint.hpp"
#include "replication/message_log.hpp"
#include "replication/reply_cache.hpp"
#include "replication/types.hpp"

namespace vdep::replication {
namespace {

RequestId rid(std::uint64_t client, std::uint64_t seq) {
  return RequestId{ProcessId{client}, seq};
}

TEST(ReplyCache, PutGetContains) {
  ReplyCache cache(8);
  EXPECT_FALSE(cache.get(rid(1, 1)).has_value());
  cache.put(rid(1, 1), Bytes{1});
  ASSERT_TRUE(cache.get(rid(1, 1)).has_value());
  EXPECT_EQ(*cache.get(rid(1, 1)), Bytes{1});
  EXPECT_TRUE(cache.contains(rid(1, 1)));
  EXPECT_FALSE(cache.contains(rid(1, 2)));
}

TEST(ReplyCache, FifoEvictionAtCapacity) {
  ReplyCache cache(3);
  for (std::uint64_t i = 1; i <= 4; ++i) cache.put(rid(1, i), Bytes{std::uint8_t(i)});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains(rid(1, 1)));  // oldest evicted
  EXPECT_TRUE(cache.contains(rid(1, 4)));
}

TEST(ReplyCache, ReinsertKeepsOriginal) {
  ReplyCache cache(8);
  cache.put(rid(1, 1), Bytes{1});
  cache.put(rid(1, 1), Bytes{2});  // replay re-records: deterministic == same
  EXPECT_EQ(*cache.get(rid(1, 1)), Bytes{1});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplyCache, SerializeRestoreRoundTrip) {
  ReplyCache cache(8);
  cache.put(rid(1, 1), Bytes{1});
  cache.put(rid(2, 5), Bytes{5, 5});
  ReplyCache other(8);
  other.restore(cache.serialize_recent(cache.size()));
  EXPECT_EQ(other.size(), 2u);
  EXPECT_EQ(*other.get(rid(2, 5)), (Bytes{5, 5}));
}

TEST(ReplyCache, SerializeRecentKeepsNewest) {
  ReplyCache cache(16);
  for (std::uint64_t i = 1; i <= 10; ++i) cache.put(rid(1, i), Bytes{std::uint8_t(i)});
  ReplyCache other(16);
  other.restore(cache.serialize_recent(3));
  EXPECT_EQ(other.size(), 3u);
  EXPECT_FALSE(other.contains(rid(1, 7)));
  EXPECT_TRUE(other.contains(rid(1, 8)));
  EXPECT_TRUE(other.contains(rid(1, 10)));
}

TEST(MessageLog, AppendTruncateAppliedReplayWindow) {
  MessageLog log;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    log.append(LoggedRequest{i, rid(1, i), NodeId{0}, kTimeZero, filler_bytes(10), {}});
  }
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.bytes(), 100u);

  // A checkpoint covering client 1 through retention id 4.
  log.truncate_applied({{ProcessId{1}, 4}});
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.bytes(), 60u);

  auto replay = log.take_all();
  ASSERT_EQ(replay.size(), 6u);
  EXPECT_EQ(replay[0].request_id.seq, 5u);
  EXPECT_EQ(replay[5].request_id.seq, 10u);
  EXPECT_TRUE(log.empty());
}

TEST(MessageLog, TruncateAppliedIsPerClient) {
  MessageLog log;
  log.append(LoggedRequest{1, rid(1, 3), NodeId{0}, kTimeZero, {}, {}});
  log.append(LoggedRequest{2, rid(2, 3), NodeId{0}, kTimeZero, {}, {}});
  log.truncate_applied({{ProcessId{1}, 5}});  // only client 1 covered
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.take_all()[0].request_id.client, ProcessId{2});
}

TEST(MessageLog, UnknownClientNeverTruncated) {
  MessageLog log;
  log.append(LoggedRequest{5, rid(7, 5), NodeId{0}, kTimeZero, {}, {}});
  log.truncate_applied({{ProcessId{1}, 100}});
  EXPECT_EQ(log.size(), 1u);
}

TEST(MessageLog, TruncateWithRetentionIdGapsKeepsEverythingAboveFrontier) {
  // Clients may skip retention ids (expired requests are dropped before
  // execution); truncation is a <= comparison against the frontier, not a
  // membership test, so gaps below it vanish and gaps above it survive.
  MessageLog log;
  log.append(LoggedRequest{1, rid(1, 1), NodeId{0}, kTimeZero, {}, {}});
  log.append(LoggedRequest{2, rid(1, 3), NodeId{0}, kTimeZero, {}, {}});
  log.append(LoggedRequest{3, rid(1, 5), NodeId{0}, kTimeZero, {}, {}});
  log.append(LoggedRequest{4, rid(2, 2), NodeId{0}, kTimeZero, {}, {}});
  log.truncate_applied({{ProcessId{1}, 4}, {ProcessId{2}, 1}});
  auto rest = log.take_all();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].request_id, rid(1, 5));
  EXPECT_EQ(rest[1].request_id, rid(2, 2));
}

TEST(MessageLog, TruncateWithEmptyAppliedMapIsANoOp) {
  MessageLog log;
  log.append(LoggedRequest{1, rid(1, 1), NodeId{0}, kTimeZero, filler_bytes(8), {}});
  log.truncate_applied({});
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.bytes(), 8u);
}

TEST(MessageLog, TakeAllMovesPayloadsWithoutCopying) {
  MessageLog log;
  Payload giop = filler_bytes(64);
  const std::uint8_t* buffer = giop.data();
  log.append(LoggedRequest{1, rid(1, 1), NodeId{0}, kTimeZero, std::move(giop), {}});
  auto out = log.take_all();
  ASSERT_EQ(out.size(), 1u);
  // Same underlying buffer: the entry changed hands by move, not by copy.
  EXPECT_EQ(out[0].giop.data(), buffer);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.bytes(), 0u);
}

TEST(QuiescenceTracker, ImmediateWhenIdle) {
  QuiescenceTracker q;
  bool fired = false;
  q.when_quiescent([&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(QuiescenceTracker, WaitsForOutstanding) {
  QuiescenceTracker q;
  q.begin_execution();
  q.begin_execution();
  bool fired = false;
  q.when_quiescent([&] { fired = true; });
  EXPECT_FALSE(fired);
  q.end_execution();
  EXPECT_FALSE(fired);
  q.end_execution();
  EXPECT_TRUE(fired);
}

TEST(QuiescenceTracker, WaitersFireInOrder) {
  QuiescenceTracker q;
  q.begin_execution();
  std::vector<int> order;
  q.when_quiescent([&] { order.push_back(1); });
  q.when_quiescent([&] { order.push_back(2); });
  q.end_execution();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Checkpoint, SnapshotCpuTimeScalesLinearly) {
  EXPECT_EQ(snapshot_cpu_time(100'000'000, 100e6), sec(1));
  EXPECT_EQ(snapshot_cpu_time(0, 100e6), kTimeZero);
}

TEST(Envelope, RoundTripAllTypes) {
  for (auto type : {RepEnvelope::Type::kRequest, RepEnvelope::Type::kCheckpoint,
                    RepEnvelope::Type::kSwitch, RepEnvelope::Type::kStateRequest,
                    RepEnvelope::Type::kCheckpointDelta,
                    RepEnvelope::Type::kStateTransfer,
                    RepEnvelope::Type::kAnchorRequest}) {
    RepEnvelope env{type, filler_bytes(20)};
    RepEnvelope out = RepEnvelope::decode(env.encode());
    EXPECT_EQ(out.type, type);
    EXPECT_EQ(out.payload, filler_bytes(20));
  }
}

TEST(Envelope, BadTypeThrows) {
  Bytes junk{9, 0, 0, 0, 0};
  EXPECT_THROW((void)RepEnvelope::decode(Payload::copy_of(junk)), DecodeError);
}

TEST(CheckpointMsgCodec, RoundTrip) {
  CheckpointMsg msg;
  msg.checkpoint_id = 0xabcdef;
  msg.applied[ProcessId{1}] = 321;
  msg.applied[ProcessId{9}] = 7;
  msg.app_state = filler_bytes(100);
  msg.reply_cache = filler_bytes(30, 7);
  CheckpointMsg out = CheckpointMsg::decode(msg.encode());
  EXPECT_EQ(out.checkpoint_id, msg.checkpoint_id);
  EXPECT_EQ(out.applied, msg.applied);
  EXPECT_EQ(out.app_state, msg.app_state);
  EXPECT_EQ(out.reply_cache, msg.reply_cache);
}

TEST(CheckpointMsgCodec, FullEncodingIsByteIdenticalToPreDeltaFormat) {
  // The delta extension must not perturb full checkpoints on the wire: at
  // anchor-interval 1 the protocol is byte-for-byte the seed protocol. This
  // pins the original layout by hand.
  CheckpointMsg msg;
  msg.checkpoint_id = 0x12345678;
  msg.applied[ProcessId{2}] = 9;
  msg.app_state = Bytes{0xaa, 0xbb};
  msg.reply_cache = Bytes{0xcc};

  ByteWriter w;
  w.u64(0x12345678);             // checkpoint_id
  w.u32(1);                      // applied entries
  w.u64(2);                      // client pid
  w.u64(9);                      // retention id
  w.bytes(Bytes{0xaa, 0xbb});    // app_state (length-prefixed)
  w.bytes(Bytes{0xcc});          // reply_cache (length-prefixed)
  EXPECT_EQ(msg.encode(), std::move(w).take());
}

TEST(CheckpointMsgCodec, DeltaRoundTripCarriesChainEpochs) {
  CheckpointMsg msg;
  msg.kind = CheckpointMsg::Kind::kDelta;
  msg.checkpoint_id = (7ULL << 20) | 4;
  msg.base_epoch = (7ULL << 20) | 3;
  msg.delta_epoch = msg.checkpoint_id;
  msg.applied[ProcessId{1}] = 17;
  msg.app_state = filler_bytes(12, 3);
  msg.reply_cache = filler_bytes(5, 9);
  CheckpointMsg out = CheckpointMsg::decode(msg.encode(), CheckpointMsg::Kind::kDelta);
  EXPECT_EQ(out.kind, CheckpointMsg::Kind::kDelta);
  EXPECT_EQ(out.checkpoint_id, msg.checkpoint_id);
  EXPECT_EQ(out.base_epoch, msg.base_epoch);
  EXPECT_EQ(out.delta_epoch, msg.delta_epoch);
  EXPECT_EQ(out.applied, msg.applied);
  EXPECT_EQ(out.app_state, msg.app_state);
  EXPECT_EQ(out.reply_cache, msg.reply_cache);
}

TEST(CheckpointMsgCodec, DeltaValidationRejectsCorruptChains) {
  CheckpointMsg msg;
  msg.kind = CheckpointMsg::Kind::kDelta;
  msg.checkpoint_id = 10;
  msg.delta_epoch = 10;
  msg.base_epoch = 9;
  const Bytes good = msg.encode();

  // delta_epoch must equal checkpoint_id.
  {
    ByteWriter w;
    w.u64(10);   // checkpoint_id
    w.u64(9);    // base_epoch
    w.u64(11);   // delta_epoch != checkpoint_id
    w.u32(0);
    w.bytes(Bytes{});
    w.bytes(Bytes{});
    EXPECT_THROW((void)CheckpointMsg::decode(Payload(std::move(w).take()),
                                             CheckpointMsg::Kind::kDelta),
                 DecodeError);
  }
  // A delta must chain forwards (base < delta).
  {
    ByteWriter w;
    w.u64(10);
    w.u64(10);   // base_epoch == delta_epoch
    w.u64(10);
    w.u32(0);
    w.bytes(Bytes{});
    w.bytes(Bytes{});
    EXPECT_THROW((void)CheckpointMsg::decode(Payload(std::move(w).take()),
                                             CheckpointMsg::Kind::kDelta),
                 DecodeError);
  }
  EXPECT_NO_THROW((void)CheckpointMsg::decode(Payload(Bytes(good)),
                                              CheckpointMsg::Kind::kDelta));
}

TEST(StateTransferMsgCodec, RoundTripAnchorPlusDeltaSuffix) {
  StateTransferMsg msg;
  msg.anchor = filler_bytes(40, 1);
  msg.deltas.push_back(filler_bytes(8, 2));
  msg.deltas.push_back(filler_bytes(6, 3));
  StateTransferMsg out = StateTransferMsg::decode(msg.encode());
  EXPECT_EQ(out.anchor, msg.anchor);
  ASSERT_EQ(out.deltas.size(), 2u);
  EXPECT_EQ(out.deltas[0], msg.deltas[0]);
  EXPECT_EQ(out.deltas[1], msg.deltas[1]);
}

TEST(Checkpoint, DeltaCpuTimeChargesDirtyBytesClampedAtFull) {
  // A delta pays for its own bytes; a pathological delta larger than the
  // state never pays more than a full snapshot would.
  EXPECT_EQ(checkpoint_cpu_time(100'000'000, std::nullopt, 100e6), sec(1));
  EXPECT_EQ(checkpoint_cpu_time(100'000'000, 1'000'000, 100e6), msec(10));
  EXPECT_EQ(checkpoint_cpu_time(1'000'000, 100'000'000, 100e6), msec(10));
}

TEST(SwitchMsgCodec, RoundTrip) {
  SwitchMsg msg;
  msg.target = ReplicationStyle::kSemiActive;
  msg.initiator = ProcessId{9};
  SwitchMsg out = SwitchMsg::decode(msg.encode());
  EXPECT_EQ(out.target, ReplicationStyle::kSemiActive);
  EXPECT_EQ(out.initiator, ProcessId{9});
}

TEST(StyleNames, CodesMatchPaperNotation) {
  EXPECT_EQ(style_code(ReplicationStyle::kActive), "A");
  EXPECT_EQ(style_code(ReplicationStyle::kWarmPassive), "P");
  EXPECT_EQ(to_string(ReplicationStyle::kColdPassive), "cold_passive");
  EXPECT_EQ(to_string(ReplicationStyle::kSemiActive), "semi_active");
}

// --- TestServant: the deterministic state machine everything rides on -------

TEST(TestServant, DeterministicExecution) {
  app::TestServant a;
  app::TestServant b;
  for (int i = 0; i < 20; ++i) {
    auto ra = a.invoke("process", filler_bytes(32, std::uint8_t(i)));
    auto rb = b.invoke("process", filler_bytes(32, std::uint8_t(i)));
    EXPECT_EQ(ra.output, rb.output);
  }
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(a.counter(), 20u);
}

TEST(TestServant, StateActuallyChanges) {
  app::TestServant s;
  const auto d0 = s.state_digest();
  (void)s.invoke("process", filler_bytes(8));
  EXPECT_NE(s.state_digest(), d0);
}

TEST(TestServant, SnapshotRestoreRoundTrip) {
  app::TestServant a;
  for (int i = 0; i < 5; ++i) (void)a.invoke("process", filler_bytes(16, std::uint8_t(i)));

  app::TestServant b;
  b.restore(a.snapshot());
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.counter(), a.counter());

  // Divergence-free continuation: both execute the same next request.
  auto ra = a.invoke("process", filler_bytes(16, 99));
  auto rb = b.invoke("process", filler_bytes(16, 99));
  EXPECT_EQ(ra.output, rb.output);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(TestServant, ReplySizeConfigurable) {
  app::TestServant::Config config;
  config.reply_bytes = 256;
  app::TestServant s(config);
  auto r = s.invoke("process", filler_bytes(8));
  EXPECT_GE(r.output.size(), 200u);
  EXPECT_LE(r.output.size(), 300u);
}

TEST(TestServant, UnknownOperationFails) {
  app::TestServant s;
  EXPECT_FALSE(s.invoke("nonsense", {}).ok);
}

TEST(TestServant, GetDigestIsReadOnly) {
  app::TestServant s;
  (void)s.invoke("process", filler_bytes(8));
  const auto d = s.state_digest();
  auto r = s.invoke("get_digest", {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(s.state_digest(), d);
  auto reply = app::ProcessReply::decode(r.output);
  EXPECT_EQ(reply.digest, d);
}

TEST(TestServant, ProcessReplyCarriesCounterAndDigest) {
  app::TestServant s;
  auto r = s.invoke("process", filler_bytes(8));
  auto reply = app::ProcessReply::decode(r.output);
  EXPECT_EQ(reply.counter, 1u);
  EXPECT_EQ(reply.digest, s.state_digest());
}

}  // namespace
}  // namespace vdep::replication
