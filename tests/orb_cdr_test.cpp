#include <gtest/gtest.h>

#include "orb/cdr.hpp"
#include "written.hpp"

namespace vdep::orb {
namespace {

using testing::written;

TEST(Cdr, PrimitiveRoundTrip) {
  const Bytes raw = written<CdrWriter>([](auto& w) {
    w.u8(7);
    w.boolean(true);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-12345);
    w.f64(2.71828);
    w.str("corba");
    w.bytes(Bytes{9, 8, 7});
  });

  CdrReader r(raw);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_DOUBLE_EQ(r.f64(), 2.71828);
  EXPECT_EQ(r.str(), "corba");
  EXPECT_EQ(r.bytes(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Cdr, AlignmentPadsRelativeToStreamStart) {
  Bytes raw(24, 0xff);
  CdrWriter w(raw);
  w.u8(1);   // position 1
  w.u32(5);  // aligns to 4: pads 3
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(raw[1], 0);  // padding
  w.u8(2);   // position 9
  w.u64(6);  // aligns to 8: pads 7
  EXPECT_EQ(w.size(), 24u);

  CdrReader r(raw);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_EQ(r.u8(), 2);
  EXPECT_EQ(r.u64(), 6u);
}

TEST(Cdr, AlreadyAlignedAddsNoPadding) {
  CdrSizer w;
  w.u32(1);
  w.u32(2);
  EXPECT_EQ(w.size(), 8u);
}

TEST(Cdr, StringRequiresNulTerminator) {
  // length including NUL
  Bytes raw = written<CdrWriter>([](auto& w) { w.u32(3); });
  // Manually corrupt: append "abc" without NUL via octets of raw buffer.
  raw.push_back('a');
  raw.push_back('b');
  raw.push_back('c');  // should be NUL
  CdrReader r(raw);
  EXPECT_THROW((void)r.str(), DecodeError);
}

TEST(Cdr, EmptyStringHasNul) {
  const Bytes raw = written<CdrWriter>([](auto& w) { w.str(""); });
  CdrReader r(raw);
  EXPECT_EQ(r.str(), "");
}

TEST(Cdr, UnderrunThrows) {
  const Bytes raw = written<CdrWriter>([](auto& w) { w.u16(1); });
  CdrReader r(raw);
  EXPECT_THROW((void)r.u64(), DecodeError);
}

TEST(Cdr, ZeroLengthStringPrefixRejected) {
  // CORBA strings always include their NUL: length >= 1
  const Bytes raw = written<CdrWriter>([](auto& w) { w.u32(0); });
  CdrReader r(raw);
  EXPECT_THROW((void)r.str(), DecodeError);
}

TEST(Cdr, DoubleSpecialValues) {
  const Bytes raw = written<CdrWriter>([](auto& w) {
    w.f64(0.0);
    w.f64(-0.0);
    w.f64(1e308);
  });
  CdrReader r(raw);
  EXPECT_DOUBLE_EQ(r.f64(), 0.0);
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_DOUBLE_EQ(r.f64(), 1e308);
}

}  // namespace
}  // namespace vdep::orb
