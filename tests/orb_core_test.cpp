// Client/server ORB over the plain TCP transports (the baseline path, with
// and without interception), plus POA routing.
#include <gtest/gtest.h>

#include "orb/orb_core.hpp"

namespace vdep::orb {
namespace {

// Echo servant: returns its input reversed, with a configurable cpu time.
struct EchoServant : Servant {
  Result invoke(const std::string& operation, const Bytes& args) override {
    ++invocations;
    Result r;
    r.cpu_time = usec(15);
    if (operation == "echo") {
      r.output = Bytes(args.rbegin(), args.rend());
    } else if (operation == "boom") {
      r.ok = false;
    }
    return r;
  }
  int invocations = 0;
};

// One client and one server host with their ORBs; the echo servant is
// active under ObjectId 1.
struct OrbBed {
  OrbBed() : kernel(1), network(kernel), channels(network) {
    client_host = network.add_host("client");
    server_host = network.add_host("server");
    client_proc = std::make_unique<sim::Process>(kernel, ProcessId{1}, client_host, "c");
    server_proc = std::make_unique<sim::Process>(kernel, ProcessId{2}, server_host, "s");
    server_orb = std::make_unique<ServerOrb>(network, *server_proc, poa);
    client_orb = std::make_unique<ClientOrb>(network, *client_proc);
    poa.activate(ObjectId{1}, servant);
  }

  ObjectRef direct_ref() {
    ObjectRef ref;
    ref.object_key = ObjectId{1};
    ref.direct = DirectProfile{server_host, 7000};
    return ref;
  }

  void use_direct_transport() {
    client_orb->use_transport(
        std::make_unique<DirectClientTransport>(channels, *client_proc));
  }

  sim::Kernel kernel;
  net::Network network;
  net::ChannelManager channels;
  NodeId client_host, server_host;
  std::unique_ptr<sim::Process> client_proc, server_proc;
  Poa poa;
  EchoServant servant;
  std::unique_ptr<ServerOrb> server_orb;
  std::unique_ptr<ClientOrb> client_orb;
};

struct OrbFixture : ::testing::Test, OrbBed {};

TEST_F(OrbFixture, InvokeRoundTrip) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();

  bool got = false;
  client_orb->invoke(direct_ref(), "echo", Bytes{1, 2, 3},
                     [&](ReplyStatus status, Bytes body) {
                       got = true;
                       EXPECT_EQ(status, ReplyStatus::kNoException);
                       EXPECT_EQ(body, (Bytes{3, 2, 1}));
                     });
  kernel.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(servant.invocations, 1);
  EXPECT_EQ(client_orb->outstanding(), 0u);
}

TEST_F(OrbFixture, RoundTripTimeMatchesCalibration) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  SimTime done = kTimeZero;
  client_orb->invoke(direct_ref(), "echo", Bytes{1},
                     [&](ReplyStatus, Bytes) { done = kernel.now(); });
  kernel.run();
  // 4 ORB traversals (398 us) + app (15 us) + 2 network crossings.
  EXPECT_GT(to_usec(done), 550.0);
  EXPECT_LT(to_usec(done), 750.0);
}

TEST_F(OrbFixture, UserExceptionPropagates) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  ReplyStatus got = ReplyStatus::kNoException;
  client_orb->invoke(direct_ref(), "boom", {}, [&](ReplyStatus s, Bytes) { got = s; });
  kernel.run();
  EXPECT_EQ(got, ReplyStatus::kUserException);
}

TEST_F(OrbFixture, UnknownObjectKeyYieldsSystemException) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  ObjectRef ref = direct_ref();
  ref.object_key = ObjectId{999};
  ReplyStatus got = ReplyStatus::kNoException;
  client_orb->invoke(ref, "echo", {}, [&](ReplyStatus s, Bytes) { got = s; });
  kernel.run();
  EXPECT_EQ(got, ReplyStatus::kSystemException);
}

TEST_F(OrbFixture, ConcurrentRequestsCorrelatedById) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  std::vector<int> replies;
  for (int i = 0; i < 5; ++i) {
    client_orb->invoke(direct_ref(), "echo", Bytes{static_cast<std::uint8_t>(i)},
                       [&replies, i](ReplyStatus, Bytes body) {
                         ASSERT_EQ(body.size(), 1u);
                         EXPECT_EQ(body[0], i);
                         replies.push_back(i);
                       });
  }
  kernel.run();
  EXPECT_EQ(replies.size(), 5u);
}

TEST_F(OrbFixture, CancelDropsPendingCallback) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  bool fired = false;
  const std::uint32_t id =
      client_orb->invoke(direct_ref(), "echo", Bytes{1}, [&](ReplyStatus, Bytes) {
        fired = true;
      });
  client_orb->cancel(id);
  kernel.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(servant.invocations, 1);  // server still executed
}

TEST_F(OrbFixture, PoaActivateDeactivate) {
  EXPECT_EQ(poa.active_count(), 1u);
  EXPECT_EQ(poa.find(ObjectId{1}), &servant);
  poa.deactivate(ObjectId{1});
  EXPECT_EQ(poa.find(ObjectId{1}), nullptr);
  EXPECT_EQ(poa.active_count(), 0u);
}

TEST_F(OrbFixture, InterceptOnlyTransportsAddCostNotBehaviour) {
  // Three back-to-back requests on a fresh bed per mode; returns each one's
  // round trip.
  auto round_trips = [](bool client_intercepted, bool server_intercepted) {
    OrbBed bed;
    DirectServerAcceptor acceptor(bed.channels, bed.server_host, 7000, *bed.server_orb,
                                  server_intercepted);
    bed.client_orb->use_transport(std::make_unique<DirectClientTransport>(
        bed.channels, *bed.client_proc, client_intercepted));
    std::vector<SimTime> rtts;
    std::function<void()> next = [&] {
      const SimTime sent = bed.kernel.now();
      bed.client_orb->invoke(bed.direct_ref(), "echo", Bytes{5, 6},
                             [&, sent](ReplyStatus status, Bytes body) {
                               EXPECT_EQ(status, ReplyStatus::kNoException);
                               EXPECT_EQ(body, (Bytes{6, 5}));
                               rtts.push_back(bed.kernel.now() - sent);
                               if (rtts.size() < 3) next();
                             });
    };
    next();
    bed.kernel.run();
    EXPECT_EQ(bed.servant.invocations, 3);
    return rtts;
  };

  // Each intercepted side adds one trampoline on the way out and one on the
  // way back, and nothing else.
  const SimTime side = 2 * calib::kInterceptOnlyTraversal;
  const std::vector<SimTime> plain = round_trips(false, false);
  const std::vector<SimTime> client = round_trips(true, false);
  const std::vector<SimTime> server = round_trips(false, true);
  const std::vector<SimTime> both = round_trips(true, true);
  ASSERT_EQ(plain.size(), 3u);
  ASSERT_EQ(client.size(), 3u);
  ASSERT_EQ(server.size(), 3u);
  ASSERT_EQ(both.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(client[i] - plain[i], side);
    EXPECT_EQ(server[i] - plain[i], side);
    EXPECT_EQ(both[i] - plain[i], 2 * side);
  }
}

TEST_F(OrbFixture, LargePayloadRoundTrip) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  const Bytes big = filler_bytes(50000);
  Bytes got;
  client_orb->invoke(direct_ref(), "echo", big,
                     [&](ReplyStatus, Bytes body) { got = std::move(body); });
  kernel.run();
  EXPECT_EQ(got, Bytes(big.rbegin(), big.rend()));
}

TEST_F(OrbFixture, CrashedClientIgnoresLateReply) {
  DirectServerAcceptor acceptor(channels, server_host, 7000, *server_orb);
  use_direct_transport();
  bool fired = false;
  client_orb->invoke(direct_ref(), "echo", Bytes{1},
                     [&](ReplyStatus, Bytes) { fired = true; });
  kernel.post(usec(200), [&] { client_proc->crash(); });
  kernel.run();
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace vdep::orb
