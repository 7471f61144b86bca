#include <gtest/gtest.h>

#include "gcs/message.hpp"
#include "gcs/view.hpp"
#include "replication/types.hpp"
#include "shard/map.hpp"
#include "util/bytes.hpp"

namespace vdep {
namespace {

TEST(ByteWriter, RoundTripsAllPrimitives) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.bytes(Bytes{1, 2, 3});

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(ByteReader, UnderrunThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  (void)r.u8();
  EXPECT_THROW((void)r.u32(), DecodeError);
}

TEST(ByteReader, TruncatedStringThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  ByteReader r(w.data());
  EXPECT_THROW((void)r.str(), DecodeError);
}

TEST(ByteReader, BadBooleanThrows) {
  Bytes raw{2};
  ByteReader r(raw);
  EXPECT_THROW((void)r.boolean(), DecodeError);
}

TEST(ByteReader, EmptyBytesAndStrings) {
  ByteWriter w;
  w.str("");
  w.bytes({});
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, RemainingTracksPosition) {
  ByteWriter w;
  w.u64(1);
  w.u64(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 16u);
  (void)r.u64();
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(FillerBytes, DeterministicAndSized) {
  EXPECT_EQ(filler_bytes(0).size(), 0u);
  EXPECT_EQ(filler_bytes(100).size(), 100u);
  EXPECT_EQ(filler_bytes(100), filler_bytes(100));
  EXPECT_NE(filler_bytes(100), filler_bytes(100, 0x11));
}

TEST(Fnv1a, KnownProperties) {
  EXPECT_EQ(fnv1a({}), 14695981039346656037ULL);  // offset basis
  const Bytes a = filler_bytes(64);
  Bytes b = a;
  b[10] ^= 1;
  EXPECT_NE(fnv1a(a), fnv1a(b));
  EXPECT_EQ(fnv1a(a), fnv1a(a));
}

// A frame whose element count claims far more elements than its remaining
// bytes can hold is rejected as corrupt before any allocation sized by it.
TEST(ByteReader, OversizedCountsThrowDecodeError) {
  constexpr std::uint32_t kHuge = 0xffffffff;
  ByteWriter view;
  view.u64(1);  // group
  view.u64(2);  // view id
  view.u32(kHuge);
  EXPECT_THROW((void)gcs::View::decode(view.data()), DecodeError);

  // SyncState carries four counts; each one is checked.
  for (int field = 0; field < 4; ++field) {
    ByteWriter sync;
    sync.u8(6);   // SyncState's inner-message tag
    sync.u64(3);  // term
    sync.u64(4);  // from
    for (int i = 0; i < field; ++i) sync.u32(0);
    sync.u32(kHuge);
    EXPECT_THROW((void)gcs::decode_inner(sync.data()), DecodeError) << "count " << field;
  }

  Bytes map = shard::ShardMap().encode();
  for (std::size_t i = map.size() - 4; i < map.size(); ++i) map[i] = 0xff;
  EXPECT_THROW((void)shard::ShardMap::decode(map), DecodeError);

  ByteWriter bundle;
  bundle.u32(0);  // empty anchor
  bundle.u32(kHuge);
  EXPECT_THROW((void)replication::StateTransferMsg::decode(Payload(std::move(bundle).take())),
               DecodeError);
}

}  // namespace
}  // namespace vdep
