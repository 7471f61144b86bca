#include <gtest/gtest.h>

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
