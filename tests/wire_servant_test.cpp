// Servant arguments arrive off the wire: a malformed argument body is
// answered with kBadRequest, never thrown out of the servant, and a
// malformed state bundle is not partly installed.
#include <gtest/gtest.h>

#include "orb/cdr.hpp"
#include "replication/types.hpp"
#include "shard/directory.hpp"
#include "shard/shard_servant.hpp"

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
  ByteWriter range;
  range.u32(2);
  range.str("a");
  range.str("b");
  replication::CheckpointMsg anchor;
  anchor.app_state = Payload(std::move(range).take());
  replication::StateTransferMsg bundle;
  bundle.anchor = Payload(anchor.encode());
  orb::CdrWriter install;
  install.ulonglong(7);  // migration id
  install.ulong(0x80000000u);
  install.ulong(0xffffffffu);
  install.ulonglong(2);  // post epoch
  install.octets(bundle.encode());
  EXPECT_EQ(data_status(servant.invoke("shard.install", std::move(install).take())),
            ShardStatus::kBadRequest);
  EXPECT_TRUE(servant.store().items().empty());
  EXPECT_EQ(servant.owned_ranges().size(), 1u);
  EXPECT_EQ(servant.fence_epoch(), 1u);

  DirectoryServant directory(ShardMap::uniform(2, 100, ShardPolicy{}));
  const auto reply = directory.invoke("dir.commit", Bytes{0, 0});
  EXPECT_EQ(DirectoryServant::decode_commit_reply(reply.output), ShardStatus::kBadRequest);
  EXPECT_EQ(directory.map().epoch(), 1u);
}

}  // namespace
}  // namespace vdep::shard
