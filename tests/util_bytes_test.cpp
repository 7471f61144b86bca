#include <gtest/gtest.h>

#include "gcs/message.hpp"
#include "gcs/view.hpp"
#include "orb/cdr.hpp"
#include "orb/giop.hpp"
#include "replication/types.hpp"
#include "shard/map.hpp"
#include "util/bytes.hpp"
#include "written.hpp"

namespace vdep {
namespace {

using testing::written;

TEST(ByteWriter, RoundTripsAllPrimitives) {
  const Bytes raw = written<ByteWriter>([](auto& w) {
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
  });

  ByteReader r(raw);
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
  const Bytes raw = written<ByteWriter>([](auto& w) { w.u32(0x01020304); });
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_EQ(raw[0], 0x04);
  EXPECT_EQ(raw[3], 0x01);
}

TEST(ByteReader, UnderrunThrows) {
  const Bytes raw = written<ByteWriter>([](auto& w) { w.u16(7); });
  ByteReader r(raw);
  (void)r.u8();
  EXPECT_THROW((void)r.u32(), DecodeError);
}

TEST(ByteReader, TruncatedStringThrows) {
  const Bytes raw = written<ByteWriter>([](auto& w) { w.u32(100); });  // claims 100 bytes
  ByteReader r(raw);
  EXPECT_THROW((void)r.str(), DecodeError);
}

TEST(ByteReader, BadBooleanThrows) {
  Bytes raw{2};
  ByteReader r(raw);
  EXPECT_THROW((void)r.boolean(), DecodeError);
}

TEST(ByteReader, EmptyBytesAndStrings) {
  Bytes raw(16);
  ByteWriter w(raw);
  w.str("");
  w.bytes({});
  ByteReader r(std::span<const std::uint8_t>(raw).first(w.size()));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, RemainingTracksPosition) {
  const Bytes raw = written<ByteWriter>([](auto& w) {
    w.u64(1);
    w.u64(2);
  });
  ByteReader r(raw);
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

constexpr std::uint32_t kHuge = 0xffffffff;

// A frame whose element count claims far more elements than its remaining
// bytes can hold is rejected as corrupt before any allocation sized by it.
TEST(ByteReader, OversizedCountsThrowDecodeError) {
  const Bytes view = written<ByteWriter>([](auto& w) {
    w.u64(1);  // group
    w.u64(2);  // view id
    w.u32(kHuge);
  });
  EXPECT_THROW((void)gcs::View::decode(view), DecodeError);

  // SyncState carries four counts; each one is checked.
  for (int field = 0; field < 4; ++field) {
    const Bytes sync = written<ByteWriter>([field](auto& w) {
      w.u8(6);   // SyncState's inner-message tag
      w.u64(3);  // term
      w.u64(4);  // from
      for (int i = 0; i < field; ++i) w.u32(0);
      w.u32(kHuge);
    });
    EXPECT_THROW((void)gcs::decode_inner(sync), DecodeError) << "count " << field;
  }

  Bytes map = shard::ShardMap().encode();
  for (std::size_t i = map.size() - 4; i < map.size(); ++i) map[i] = 0xff;
  EXPECT_THROW((void)shard::ShardMap::decode(map), DecodeError);

  Bytes bundle = written<ByteWriter>([](auto& w) {
    w.u32(0);  // empty anchor
    w.u32(kHuge);
  });
  EXPECT_THROW((void)replication::StateTransferMsg::decode(Payload(std::move(bundle))),
               DecodeError);

  // CDR reads through the same bounds: a GIOP Request claiming 0xffffffff
  // service contexts...
  auto request = [](std::uint32_t size) {
    return written<orb::CdrWriter>([size](auto& w) {
      for (const char c : {'G', 'I', 'O', 'P'}) w.u8(static_cast<std::uint8_t>(c));
      w.u8(1);  // version 1.2
      w.u8(2);
      w.u8(1);  // little-endian
      w.u8(0);  // Request
      w.u32(size);
      w.u32(1);  // request id
      w.u8(3);   // response expected
      w.u64(7);  // object key
      w.str("op");
      w.u32(kHuge);
    });
  };
  const Bytes giop = request(static_cast<std::uint32_t>(request(0).size() - 12));
  EXPECT_THROW((void)orb::decode_giop(giop), DecodeError);

  // ...and an octet sequence whose length runs past the frame.
  const Bytes octets = written<orb::CdrWriter>([](auto& w) {
    w.u32(kHuge);
    w.u32(0);
  });
  EXPECT_THROW((void)orb::cdr_decode<Bytes>(octets), DecodeError);
}

}  // namespace
}  // namespace vdep
