#include <gtest/gtest.h>

#include <string_view>

#include "orb/giop.hpp"

namespace vdep::orb {
namespace {

TEST(Giop, RequestRoundTrip) {
  RequestMessage req;
  req.request_id = 42;
  req.response_expected = true;
  req.object_key = ObjectId{7};
  req.operation = "process";
  req.body = filler_bytes(100);

  const Bytes wire = req.encode().to_bytes();
  GiopMessage msg = decode_giop(wire);
  ASSERT_TRUE(msg.request.has_value());
  EXPECT_EQ(msg.request->request_id, 42u);
  EXPECT_TRUE(msg.request->response_expected);
  EXPECT_EQ(msg.request->object_key, ObjectId{7});
  EXPECT_EQ(msg.request->operation, "process");
  EXPECT_EQ(msg.request->body, filler_bytes(100));
}

TEST(Giop, OnewayRequest) {
  RequestMessage req;
  req.request_id = 1;
  req.response_expected = false;
  req.operation = "notify";
  GiopMessage msg = decode_giop(req.encode());
  ASSERT_TRUE(msg.request.has_value());
  EXPECT_FALSE(msg.request->response_expected);
}

TEST(Giop, ReplyRoundTripAllStatuses) {
  for (auto status : {ReplyStatus::kNoException, ReplyStatus::kUserException,
                      ReplyStatus::kSystemException, ReplyStatus::kLocationForward}) {
    ReplyMessage rep;
    rep.request_id = 9;
    rep.status = status;
    rep.body = filler_bytes(16);
    GiopMessage msg = decode_giop(rep.encode());
    ASSERT_TRUE(msg.reply.has_value());
    EXPECT_EQ(msg.reply->status, status);
    EXPECT_EQ(msg.reply->request_id, 9u);
    EXPECT_EQ(msg.reply->body, filler_bytes(16));
  }
}

TEST(Giop, ServiceContextsSurviveRoundTrip) {
  RequestMessage req;
  req.request_id = 1;
  req.operation = "op";
  req.service_contexts.push_back(ServiceContext{123, Bytes{1, 2}});
  req.service_contexts.push_back(ServiceContext{456, Bytes{}});
  GiopMessage msg = decode_giop(req.encode());
  ASSERT_EQ(msg.request->service_contexts.size(), 2u);
  EXPECT_EQ(msg.request->service_contexts[0].context_id, 123u);
  EXPECT_EQ(msg.request->service_contexts[0].data, (Bytes{1, 2}));
  EXPECT_EQ(msg.request->service_contexts[1].context_id, 456u);
}

TEST(Giop, FtRequestContextRoundTrip) {
  FtRequestContext ctx;
  ctx.client = ProcessId{5001};
  ctx.retention_id = 88;
  ctx.client_daemon = NodeId{3};
  ctx.expiration = sec(12);

  RequestMessage req;
  req.request_id = 88;
  req.operation = "process";
  req.service_contexts.push_back(ctx.to_context());

  GiopMessage msg = decode_giop(req.encode());
  auto decoded = FtRequestContext::from_contexts(msg.request->service_contexts);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->client, ProcessId{5001});
  EXPECT_EQ(decoded->retention_id, 88u);
  EXPECT_EQ(decoded->client_daemon, NodeId{3});
  EXPECT_EQ(decoded->expiration, sec(12));
}

TEST(Giop, FtContextAbsentReturnsNullopt) {
  EXPECT_FALSE(FtRequestContext::from_contexts({}).has_value());
  EXPECT_FALSE(FtRequestContext::from_contexts({ServiceContext{1, {}}}).has_value());
}

TEST(Giop, RewritingRequestPreservesBody) {
  // What the client coordinator does: decode, add a context, re-encode.
  RequestMessage req;
  req.request_id = 3;
  req.operation = "process";
  req.body = filler_bytes(64);
  GiopMessage msg = decode_giop(req.encode());
  FtRequestContext ctx;
  ctx.client = ProcessId{1};
  ctx.retention_id = 3;
  msg.request->service_contexts.push_back(ctx.to_context());
  GiopMessage re = decode_giop(msg.request->encode());
  EXPECT_EQ(re.request->body, filler_bytes(64));
  EXPECT_EQ(re.request->operation, "process");
  EXPECT_TRUE(FtRequestContext::from_contexts(re.request->service_contexts).has_value());
}

TEST(Giop, BadMagicThrows) {
  RequestMessage req;
  req.operation = "x";
  Bytes wire = req.encode().to_bytes();
  wire[0] = 'X';
  EXPECT_THROW((void)decode_giop(wire), DecodeError);
}

TEST(Giop, TruncatedHeaderThrows) {
  Bytes tiny{'G', 'I', 'O', 'P'};
  EXPECT_THROW((void)decode_giop(tiny), DecodeError);
}

TEST(Giop, BadVersionThrows) {
  RequestMessage req;
  req.operation = "x";
  Bytes wire = req.encode().to_bytes();
  wire[4] = 9;  // major version
  EXPECT_THROW((void)decode_giop(wire), DecodeError);
}

// A Request written by hand in either byte order: every multi-byte field
// aligned as CDR aligns it and laid out in that order, and the flags octet
// saying which order it is.
Bytes hand_written_request(bool little_endian) {
  Bytes out;
  auto put = [&out, little_endian](std::uint64_t v, std::size_t width) {
    while (out.size() % width != 0) out.push_back(0);
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t byte = little_endian ? i : width - 1 - i;
      out.push_back(static_cast<std::uint8_t>(v >> (8 * byte)));
    }
  };
  for (const char c : {'G', 'I', 'O', 'P'}) put(static_cast<std::uint8_t>(c), 1);
  put(1, 1);                      // version 1.2
  put(2, 1);
  put(little_endian ? 1 : 0, 1);  // flags: the byte-order bit
  put(0, 1);                      // Request
  put(0, 4);                      // size, set below
  put(42, 4);                     // request id
  put(0x03, 1);                   // response expected
  put(7, 8);                      // object key
  put(8, 4);                      // "process" and its NUL
  for (const char c : std::string_view("process")) put(static_cast<std::uint8_t>(c), 1);
  put(0, 1);
  put(0, 4);                      // no service contexts
  while (out.size() % 8 != 0) out.push_back(0);  // the body's alignment
  for (const std::uint8_t b : filler_bytes(16)) out.push_back(b);

  const std::size_t size = out.size() - 12;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t byte = little_endian ? i : 3 - i;
    out[8 + i] = static_cast<std::uint8_t>(size >> (8 * byte));
  }
  return out;
}

// Every stream is little-endian: a big-endian Request is rejected whole,
// although the same message in little-endian order decodes.
TEST(Giop, BigEndianRequestThrows) {
  const Bytes little = hand_written_request(/*little_endian=*/true);
  const GiopMessage msg = decode_giop(little);
  ASSERT_TRUE(msg.request.has_value());
  EXPECT_EQ(msg.request->request_id, 42u);
  EXPECT_EQ(msg.request->object_key, ObjectId{7});
  EXPECT_EQ(msg.request->operation, "process");
  EXPECT_EQ(msg.request->body, filler_bytes(16));

  const Bytes big = hand_written_request(/*little_endian=*/false);
  EXPECT_THROW((void)decode_giop(big), DecodeError);
}

TEST(Giop, BadReplyStatusThrows) {
  ReplyMessage rep;
  rep.request_id = 1;
  Bytes wire = rep.encode().to_bytes();
  // Reply status is the second ulong after the 12-byte header.
  wire[16] = 200;
  EXPECT_THROW((void)decode_giop(wire), DecodeError);
}

TEST(Giop, EmptyBodySupported) {
  RequestMessage req;
  req.request_id = 2;
  req.operation = "ping";
  GiopMessage msg = decode_giop(req.encode());
  EXPECT_TRUE(msg.request->body.empty());
}

}  // namespace
}  // namespace vdep::orb
