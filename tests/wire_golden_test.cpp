// Golden-bytes pin for the wire encodings: the FNV-1a hash of a fixed
// instance of every infrastructure message, every checkpointed app layout
// and every CDR layout. A round trip cannot see a field order
// that changes symmetrically in encoder and decoder; these hashes can.
// Re-baseline only for a deliberate wire-format change.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

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

}  // namespace
}  // namespace vdep::wire_test
