// Unit tests for the daemon substrate pieces: the reliable FIFO link layer
// and the heartbeat failure detector.
#include <gtest/gtest.h>

#include "gcs/failure_detector.hpp"
#include "gcs/reliable_link.hpp"

namespace vdep::gcs {
namespace {

struct LinkFixture : ::testing::Test {
  LinkFixture() : kernel(1), network(kernel) {
    a = network.add_host("a");
    b = network.add_host("b");
    pa = std::make_unique<sim::Process>(kernel, ProcessId{1}, a, "pa");
    pb = std::make_unique<sim::Process>(kernel, ProcessId{2}, b, "pb");

    link_a = std::make_unique<ReliableLink>(
        *pa, network,
        [this](NodeId from, Payload&& inner) {
          at_a.push_back({from, std::move(inner)});
        },
        [this](NodeId from, Payload&&) { raw_a.push_back(from); });
    link_b = std::make_unique<ReliableLink>(
        *pb, network,
        [this](NodeId from, Payload&& inner) {
          at_b.push_back({from, std::move(inner)});
        },
        [this](NodeId from, Payload&&) { raw_b.push_back(from); });

    network.bind(a, net::Port::kGcsDaemon,
                 [this](net::Packet&& p) { link_a->handle_packet(std::move(p)); });
    network.bind(b, net::Port::kGcsDaemon,
                 [this](net::Packet&& p) { link_b->handle_packet(std::move(p)); });
  }

  sim::Kernel kernel;
  net::Network network;
  NodeId a, b;
  std::unique_ptr<sim::Process> pa, pb;
  std::unique_ptr<ReliableLink> link_a, link_b;
  std::vector<std::pair<NodeId, Payload>> at_a, at_b;
  std::vector<NodeId> raw_a, raw_b;
};

TEST_F(LinkFixture, DeliversInOrder) {
  for (std::uint8_t i = 0; i < 10; ++i) link_a->send(b, Bytes{i}, 1);
  kernel.run();
  ASSERT_EQ(at_b.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(at_b[i].second, Bytes{i});
  EXPECT_EQ(at_b[0].first, a);
}

TEST_F(LinkFixture, RecoversFromHeavyLoss) {
  net::LinkParams lossy;
  lossy.loss_probability = 0.6;
  network.set_link_params(a, b, lossy);
  network.set_link_params(b, a, lossy);  // acks lossy too
  for (std::uint8_t i = 0; i < 30; ++i) link_a->send(b, Bytes{i}, 1);
  kernel.run_until(sec(5));
  ASSERT_EQ(at_b.size(), 30u);
  for (std::uint8_t i = 0; i < 30; ++i) EXPECT_EQ(at_b[i].second, Bytes{i});
  EXPECT_GT(link_a->retransmissions(), 0u);
}

TEST_F(LinkFixture, NoDuplicateDeliveryDespiteRetransmissions) {
  // Drop only the acks: every data frame arrives, is re-sent anyway, and the
  // receiver must dedup.
  net::LinkParams ack_lossy;
  ack_lossy.loss_probability = 0.9;
  network.set_link_params(b, a, ack_lossy);
  for (std::uint8_t i = 0; i < 10; ++i) link_a->send(b, Bytes{i}, 1);
  kernel.run_until(sec(3));
  EXPECT_EQ(at_b.size(), 10u);
}

TEST_F(LinkFixture, RawFramesBypassReliability) {
  link_a->send_raw(b, Bytes{7});
  kernel.run();
  ASSERT_EQ(raw_b.size(), 1u);
  EXPECT_EQ(raw_b[0], a);
  EXPECT_TRUE(at_b.empty());
  // Raw traffic is uncounted control traffic.
  EXPECT_EQ(network.totals().bytes, 0u);
}

TEST_F(LinkFixture, ForgetPeerStopsRetransmitting) {
  network.set_host_up(b, false);
  link_a->send(b, Bytes{1}, 1);
  kernel.run_until(msec(100));
  const auto before = link_a->retransmissions();
  EXPECT_GT(before, 0u);
  link_a->forget_peer(b);
  kernel.run_until(msec(400));
  EXPECT_EQ(link_a->retransmissions(), before);
}

TEST_F(LinkFixture, BidirectionalTrafficIndependent) {
  link_a->send(b, Bytes{1}, 1);
  link_b->send(a, Bytes{2}, 1);
  kernel.run();
  ASSERT_EQ(at_b.size(), 1u);
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].second, Bytes{2});
}

// --- failure detector -----------------------------------------------------------
// The detector heartbeats every 20 ms and suspects a peer after 25 silent
// intervals, so every timing below straddles the 500 ms timeout.

struct FdFixture : ::testing::Test {
  FdFixture() : kernel(1) {
    owner = std::make_unique<sim::Process>(kernel, ProcessId{1}, NodeId{0}, "fd-owner");
  }

  std::unique_ptr<FailureDetector> make(std::vector<NodeId> peers) {
    return std::make_unique<FailureDetector>(
        *owner, std::move(peers), [this](NodeId peer) { heartbeats_sent.push_back(peer); },
        [this](NodeId peer) { suspected.push_back(peer); });
  }

  sim::Kernel kernel;
  std::unique_ptr<sim::Process> owner;
  std::vector<NodeId> heartbeats_sent;
  std::vector<NodeId> suspected;
};

TEST_F(FdFixture, SendsHeartbeatsPeriodically) {
  auto fd = make({NodeId{1}, NodeId{2}});
  fd->start();
  // Keep the peers alive so sends continue.
  kernel.post(msec(1), [&] {});
  for (int t = 0; t < 50; ++t) {
    kernel.post(msec(t * 20 + 10), [&] {
      fd->heartbeat_received(NodeId{1});
      fd->heartbeat_received(NodeId{2});
    });
  }
  kernel.run_until(msec(1000));
  EXPECT_GE(heartbeats_sent.size(), 98u);  // ~50 rounds x 2 peers
  EXPECT_TRUE(suspected.empty());
}

TEST_F(FdFixture, SilentPeerSuspectedAfterTimeout) {
  auto fd = make({NodeId{1}});
  fd->start();
  kernel.run_until(msec(600));
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(suspected[0], NodeId{1});
  EXPECT_FALSE(fd->alive(NodeId{1}));
}

TEST_F(FdFixture, HeartbeatsKeepPeerAlive) {
  auto fd = make({NodeId{1}});
  fd->start();
  for (int t = 10; t < 1500; t += 30) {
    kernel.post(msec(t), [&] { fd->heartbeat_received(NodeId{1}); });
  }
  kernel.run_until(msec(1500));
  EXPECT_TRUE(suspected.empty());
  EXPECT_TRUE(fd->alive(NodeId{1}));
}

TEST_F(FdFixture, SuspicionIsSticky) {
  auto fd = make({NodeId{1}});
  fd->start();
  kernel.run_until(msec(600));
  ASSERT_EQ(suspected.size(), 1u);
  // Late heartbeats from a suspected peer are ignored (crash-stop model).
  fd->heartbeat_received(NodeId{1});
  kernel.run_until(msec(1200));
  EXPECT_FALSE(fd->alive(NodeId{1}));
  EXPECT_EQ(suspected.size(), 1u);  // no duplicate notification
}

TEST_F(FdFixture, MarkDeadImmediate) {
  auto fd = make({NodeId{1}, NodeId{2}});
  fd->start();
  fd->mark_dead(NodeId{2});
  EXPECT_FALSE(fd->alive(NodeId{2}));
  EXPECT_TRUE(fd->alive(NodeId{1}));
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(suspected[0], NodeId{2});
  EXPECT_EQ(fd->live_peers(), std::vector<NodeId>{NodeId{1}});
}

TEST_F(FdFixture, UnknownPeerNeverAlive) {
  auto fd = make({NodeId{1}});
  EXPECT_FALSE(fd->alive(NodeId{9}));
  fd->heartbeat_received(NodeId{9});  // ignored, no crash
}

}  // namespace
}  // namespace vdep::gcs
