// Servant arguments arrive off the wire: a malformed argument body is
// answered with kBadRequest, never thrown out of the servant, and a
// malformed state bundle is not partly installed. The same holds for the
// checkpointed state a backup applies: a malformed snapshot, delta or reply
// list throws DecodeError and leaves the object as it was.
#include <gtest/gtest.h>

#include <span>
#include <utility>

#include "orb/cdr.hpp"
#include "replication/types.hpp"
#include "shard/directory.hpp"
#include "shard/shard_servant.hpp"
#include "wire_blobs.hpp"
#include "written.hpp"

namespace vdep::shard {
namespace {

ShardStatus data_status(const ShardServant::Result& result) {
  return ShardServant::decode_data_reply(result.output).status;
}

TEST(ServantArgs, MalformedArgumentsAnswerBadRequest) {
  ShardServant servant({{0, 0x7fffffffu}}, 1);
  EXPECT_EQ(data_status(servant.invoke("put", Bytes{1, 2, 3})), ShardStatus::kBadRequest);
  EXPECT_EQ(data_status(servant.invoke("shard.freeze", Bytes{})), ShardStatus::kBadRequest);
  EXPECT_FALSE(servant.frozen());

  // An install whose donated range claims two items but holds one.
  replication::CheckpointMsg anchor;
  anchor.app_state = Payload(testing::written<ByteWriter>([](auto& range) {
    range.u32(2);
    range.str("a");
    range.str("b");
  }));
  replication::StateTransferMsg bundle;
  bundle.anchor = anchor.encode();
  const ShardServant::InstallArgs install{7, {0x80000000u, 0xffffffffu}, 2,
                                          bundle.encode().to_bytes()};
  EXPECT_EQ(data_status(servant.invoke("shard.install", orb::cdr_encode<Bytes>(install))),
            ShardStatus::kBadRequest);
  EXPECT_TRUE(servant.store().items().empty());
  EXPECT_EQ(servant.owned_ranges().size(), 1u);
  EXPECT_EQ(servant.fence_epoch(), 1u);

  DirectoryServant directory(ShardMap::uniform(2, 100, ShardPolicy{}));
  const auto reply = directory.invoke("dir.commit", Bytes{0, 0});
  EXPECT_EQ(DirectoryServant::decode_commit_reply(reply.output), ShardStatus::kBadRequest);
  EXPECT_EQ(directory.map().epoch(), 1u);
}

// --- malformed checkpointed state ----------------------------------------------

const Bytes& pinned(const std::string& name) {
  static const auto blobs = wire_test::wire_blobs();
  for (const auto& blob : blobs) {
    if (blob.name == name) return blob.bytes;
  }
  throw std::invalid_argument("no wire blob " + name);
}

// Feeds `apply` every proper prefix of `valid`: each must throw DecodeError
// and leave `fingerprint()` as it was.
template <typename Apply, typename Fingerprint>
void expect_prefixes_change_nothing(const Bytes& valid, Apply apply, Fingerprint fingerprint) {
  const auto before = fingerprint();
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_THROW(apply(std::span(valid).first(len)), DecodeError) << "prefix " << len;
    ASSERT_EQ(fingerprint(), before) << "prefix " << len;
  }
}

template <typename Servant>
auto servant_fingerprint(const Servant& servant) {
  return [&servant] { return std::pair(servant.state_digest(), servant.state_size()); };
}

TEST(MalformedState, KvStoreRestoreAndDeltaChangeNothing) {
  app::KvStoreServant store;
  wire_test::kv_put(store, "alpha", "old");
  wire_test::kv_put(store, "zeta", "26");
  const auto fingerprint = servant_fingerprint(store);
  expect_prefixes_change_nothing(
      pinned("KvStore.snapshot"), [&](auto raw) { store.restore(raw); }, fingerprint);
  expect_prefixes_change_nothing(
      pinned("KvStore.delta"), [&](auto raw) { store.apply_delta(raw); }, fingerprint);
  EXPECT_EQ(store.lookup("alpha"), "old");
}

TEST(MalformedState, ShardServantRestoreAndDeltaChangeNothing) {
  ShardServant servant({{0, 0x7fffffffu}}, 4);
  const std::string value = "v";
  (void)servant.invoke("put", ShardServant::encode_data_args(4, "kiwi", &value));
  const auto fingerprint = servant_fingerprint(servant);
  expect_prefixes_change_nothing(
      pinned("ShardServant.snapshot"), [&](auto raw) { servant.restore(raw); }, fingerprint);
  expect_prefixes_change_nothing(
      pinned("ShardServant.delta"), [&](auto raw) { servant.apply_delta(raw); }, fingerprint);
  EXPECT_EQ(servant.fence_epoch(), 4u);
  EXPECT_FALSE(servant.frozen());
}

TEST(MalformedState, TestServantRestoreChangesNothing) {
  app::TestServant servant;
  (void)servant.invoke("process", filler_bytes(8));
  expect_prefixes_change_nothing(
      pinned("TestServant.snapshot"), [&](auto raw) { servant.restore(raw); },
      servant_fingerprint(servant));
  EXPECT_EQ(servant.counter(), 1u);
}

TEST(MalformedState, ReplyCacheRestoreAndAppendChangeNothing) {
  replication::ReplyCache cache;
  cache.put({ProcessId{3}, 7}, Payload(filler_bytes(5)));
  const auto fingerprint = [&cache] {
    return std::pair(cache.size(), cache.serialize_recent(cache.size()));
  };
  const auto decode = [](std::span<const std::uint8_t> raw) {
    return replication::ReplyCache::decode(Payload::copy_of(raw));
  };
  expect_prefixes_change_nothing(
      pinned("ReplyCache"), [&](auto raw) { cache.restore(decode(raw)); }, fingerprint);
  expect_prefixes_change_nothing(
      pinned("ReplyCache"), [&](auto raw) { cache.append(decode(raw), 16); }, fingerprint);
}

}  // namespace
}  // namespace vdep::shard
