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
        *pa, network, [this](NodeId from, Payload&& inner) {
          at_a.push_back({from, std::move(inner)});
        });
    link_b = std::make_unique<ReliableLink>(
        *pb, network, [this](NodeId from, Payload&& inner) {
          at_b.push_back({from, std::move(inner)});
        });

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

TEST_F(LinkFixture, HeartbeatBeaconsAreUncountedControlTraffic) {
  // Heartbeats bypass the link layer: a beacon is read off the network, never
  // delivered as a link frame, and costs neither bandwidth nor an event.
  network.beacon(a, b);
  kernel.run();
  std::vector<SimTime> arrivals;
  network.take_beacons(a, b, sec(1), [&](SimTime t) { arrivals.push_back(t); });
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_TRUE(at_b.empty());
  EXPECT_EQ(network.totals().packets, 0u);
  EXPECT_EQ(network.totals().bytes, 0u);
  EXPECT_EQ(kernel.events_executed(), 0u);
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
  FdFixture() : kernel(1), network(kernel) {
    for (int h = 0; h < 3; ++h) network.add_host("h" + std::to_string(h));
    owner = std::make_unique<sim::Process>(kernel, ProcessId{1}, kOwner, "fd-owner");
  }

  std::unique_ptr<FailureDetector> make(std::vector<NodeId> peers) {
    return std::make_unique<FailureDetector>(
        *owner, network, std::move(peers),
        [this](NodeId peer) { suspected.push_back(peer); },
        [this](NodeId from, SimTime) { heard.push_back(from); });
  }

  // A heartbeat from `peer` to the detector's owner, sent at `at`.
  void heartbeat_at(SimTime at, NodeId peer) {
    kernel.post_at(at, [this, peer] { network.beacon(peer, kOwner); });
  }

  // Heartbeats the detector has sent to `peer` (in flight ones included).
  std::size_t heartbeats_sent_to(NodeId peer) {
    std::size_t n = 0;
    network.take_beacons(kOwner, peer, sec(3600), [&](SimTime) { ++n; });
    return n;
  }

  static constexpr NodeId kOwner{0};
  sim::Kernel kernel;
  net::Network network;
  std::unique_ptr<sim::Process> owner;
  std::vector<NodeId> suspected;
  std::vector<NodeId> heard;  // heartbeats the detector read, by sender
};

TEST_F(FdFixture, SendsHeartbeatsPeriodically) {
  auto fd = make({NodeId{1}, NodeId{2}});
  fd->start();
  // Keep the peers alive so sends continue.
  for (int t = 0; t < 50; ++t) {
    heartbeat_at(msec(t * 20 + 10), NodeId{1});
    heartbeat_at(msec(t * 20 + 10), NodeId{2});
  }
  kernel.run_until(msec(1000));
  // ~50 rounds x 2 peers
  EXPECT_GE(heartbeats_sent_to(NodeId{1}) + heartbeats_sent_to(NodeId{2}), 98u);
  EXPECT_TRUE(suspected.empty());
  EXPECT_GE(heard.size(), 96u);  // read on the ticks after they landed
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
  for (int t = 10; t < 1500; t += 30) heartbeat_at(msec(t), NodeId{1});
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
  for (int t = 610; t < 1200; t += 20) heartbeat_at(msec(t), NodeId{1});
  kernel.run_until(msec(1200));
  EXPECT_FALSE(fd->alive(NodeId{1}));
  EXPECT_EQ(suspected.size(), 1u);  // no duplicate notification
  // Once suspected, the detector stops heartbeating the peer.
  const std::size_t sent = heartbeats_sent_to(NodeId{1});
  kernel.run_until(msec(1400));
  EXPECT_EQ(heartbeats_sent_to(NodeId{1}), 0u);
  EXPECT_GT(sent, 0u);
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
  // A heartbeat from a host that is not a peer is never read.
  heartbeat_at(msec(1), NodeId{2});
  kernel.run_until(msec(30));
  fd->poll();
  EXPECT_TRUE(heard.empty());
  EXPECT_FALSE(fd->alive(NodeId{2}));
}

TEST_F(FdFixture, DiscardDropsArrivalsUnread) {
  auto fd = make({NodeId{1}});
  heartbeat_at(msec(1), NodeId{1});
  heartbeat_at(msec(5), NodeId{1});
  kernel.run_until(msec(3));
  fd->discard();  // the first landed: dropped unread
  kernel.run_until(msec(10));
  fd->poll();     // the second landed after the discard: read
  EXPECT_EQ(heard, std::vector<NodeId>{NodeId{1}});
}

}  // namespace
}  // namespace vdep::gcs
