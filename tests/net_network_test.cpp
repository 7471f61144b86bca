#include <gtest/gtest.h>

#include "net/fault_plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"

namespace vdep::net {
namespace {

struct NetFixture : ::testing::Test {
  NetFixture() : kernel(1), network(kernel) {
    a = network.add_host("a");
    b = network.add_host("b");
  }

  void bind_collector(NodeId host, std::vector<Payload>& sink) {
    network.bind(host, Port::kTcp, [&sink](Packet&& p) {
      sink.push_back(std::move(p.payload));
    });
  }

  Packet make_packet(NodeId from, NodeId to, std::size_t size = 100) {
    Packet p;
    p.src = from;
    p.dst = to;
    p.port = Port::kTcp;
    p.payload = filler_bytes(size);
    return p;
  }

  sim::Kernel kernel;
  Network network;
  NodeId a, b;
};

TEST_F(NetFixture, DeliversToBoundHandler) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.send(make_packet(a, b));
  kernel.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], filler_bytes(100));
}

TEST_F(NetFixture, PropagationAndSerializationDelay) {
  std::vector<Payload> got;
  SimTime arrival = kTimeZero;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrival = kernel.now(); });
  LinkParams link;
  link.propagation = usec(100);
  link.jitter_stddev = kTimeZero;
  link.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 1000 bytes take 1 ms
  network.set_link_params(a, b, link);
  Packet p = make_packet(a, b);
  p.wire_bytes = 1000;
  network.send(std::move(p));
  kernel.run();
  EXPECT_EQ(arrival, usec(1100));
}

TEST_F(NetFixture, SerializationQueuesBackToBack) {
  std::vector<SimTime> arrivals;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrivals.push_back(kernel.now()); });
  LinkParams link;
  link.propagation = kTimeZero;
  link.jitter_stddev = kTimeZero;
  link.bandwidth_bytes_per_sec = 1e6;
  network.set_link_params(a, b, link);
  for (int i = 0; i < 2; ++i) {
    Packet p = make_packet(a, b);
    p.wire_bytes = 1000;
    network.send(std::move(p));
  }
  kernel.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(1));
  EXPECT_EQ(arrivals[1], msec(2));  // queued behind the first
}

TEST_F(NetFixture, LoopbackIsFreeAndUncounted) {
  std::vector<Payload> got;
  bind_collector(a, got);
  network.send(make_packet(a, a));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(network.totals().bytes, 0u);
}

TEST_F(NetFixture, AccountingCountsWireBytes) {
  std::vector<Payload> got;
  bind_collector(b, got);
  Packet p = make_packet(a, b);
  p.wire_bytes = 500;
  network.send(std::move(p));
  kernel.run();
  EXPECT_EQ(network.totals().packets, 1u);
  EXPECT_EQ(network.totals().bytes, 500u);
  EXPECT_EQ(network.host_sent(a).bytes, 500u);
  EXPECT_EQ(network.host_sent(b).bytes, 0u);
}

TEST_F(NetFixture, UncountedControlTrafficExcluded) {
  std::vector<Payload> got;
  bind_collector(b, got);
  Packet p = make_packet(a, b);
  p.counted = false;
  network.send(std::move(p));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(network.totals().bytes, 0u);
}

TEST_F(NetFixture, LossDropsUnreliablePackets) {
  std::vector<Payload> got;
  bind_collector(b, got);
  LinkParams link;
  link.loss_probability = 1.0;
  network.set_link_params(a, b, link);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(network.totals().dropped_packets, 1u);
}

TEST_F(NetFixture, ReliablePacketsSurviveLossWithPenalty) {
  SimTime arrival = kTimeZero;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrival = kernel.now(); });
  LinkParams link;
  link.loss_probability = 1.0;
  link.jitter_stddev = kTimeZero;
  network.set_link_params(a, b, link);
  Packet p = make_packet(a, b);
  p.reliable = true;
  network.send(std::move(p));
  kernel.run();
  EXPECT_GT(arrival, msec(1));  // retransmission penalty applied
}

TEST_F(NetFixture, PartitionCutsBothDirections) {
  std::vector<Payload> got_a, got_b;
  bind_collector(a, got_a);
  bind_collector(b, got_b);
  network.partition({a}, {b});
  Packet p1 = make_packet(a, b);
  p1.reliable = true;  // even reliable traffic cannot cross a partition
  network.send(std::move(p1));
  network.send(make_packet(b, a));
  kernel.run();
  EXPECT_TRUE(got_a.empty());
  EXPECT_TRUE(got_b.empty());
  network.heal_partitions();
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_EQ(got_b.size(), 1u);
}

TEST_F(NetFixture, DeadHostNeitherSendsNorReceives) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.set_host_up(a, false);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
  network.set_host_up(a, true);
  network.set_host_up(b, false);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
}

TEST_F(NetFixture, ResetTotalsClearsCounters) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_GT(network.totals().bytes, 0u);
  network.reset_totals();
  EXPECT_EQ(network.totals().bytes, 0u);
  EXPECT_EQ(network.host_sent(a).bytes, 0u);
}

// --- beacons -----------------------------------------------------------------

std::vector<SimTime> take_all(Network& network, NodeId src, NodeId dst,
                              SimTime before = sec(3600)) {
  std::vector<SimTime> out;
  network.take_beacons(src, dst, before, [&](SimTime t) { out.push_back(t); });
  return out;
}

TEST_F(NetFixture, BeaconTakesTheLinkModelOfAnUncountedPacket) {
  // A twin network on a same-seed kernel carries uncounted packets of the
  // beacon's wire size where this one carries beacons: same RNG draws in the
  // same order and the same serialization queue give the same arrivals.
  sim::Kernel twin_kernel(1);
  Network twin(twin_kernel);
  const NodeId ta = twin.add_host("a");
  const NodeId tb = twin.add_host("b");
  std::vector<SimTime> packet_arrivals;
  twin.bind(tb, Port::kTcp,
            [&](Packet&&) { packet_arrivals.push_back(twin_kernel.now()); });

  for (int round = 0; round < 3; ++round) {
    kernel.post_at(msec(20 * round), [&] {
      for (int i = 0; i < 4; ++i) network.beacon(a, b);  // back to back
    });
    twin_kernel.post_at(msec(20 * round), [&] {
      for (int i = 0; i < 4; ++i) {
        Packet p;
        p.src = ta;
        p.dst = tb;
        p.wire_bytes = kBeaconWireBytes;
        p.counted = false;
        twin.send(std::move(p));
      }
    });
  }
  kernel.run();
  twin_kernel.run();

  ASSERT_EQ(packet_arrivals.size(), 12u);
  EXPECT_EQ(take_all(network, a, b), packet_arrivals);
  // Beacons are uncounted control traffic and schedule no delivery event.
  EXPECT_EQ(network.totals().packets, 0u);
  EXPECT_EQ(network.totals().bytes, 0u);
  EXPECT_EQ(kernel.events_executed(), 3u);  // only the three posting events
}

TEST_F(NetFixture, BeaconDroppedAcrossPartitionOrToDeadHost) {
  network.partition({a}, {b});
  network.beacon(a, b);
  EXPECT_EQ(network.totals().dropped_packets, 1u);
  network.heal_partitions();
  network.set_host_up(b, false);
  network.beacon(a, b);
  EXPECT_EQ(network.totals().dropped_packets, 2u);
  network.set_host_up(b, true);
  kernel.run();
  EXPECT_TRUE(take_all(network, a, b).empty());
  // A dead sender sends nothing, and that is no drop.
  network.set_host_up(a, false);
  network.beacon(a, b);
  EXPECT_EQ(network.totals().dropped_packets, 2u);
  EXPECT_TRUE(take_all(network, a, b).empty());
}

TEST_F(NetFixture, PendingBeaconsPurgedWhenDestinationGoesDown) {
  network.beacon(a, b);  // lands after ~85 us
  kernel.post(usec(10), [&] { network.set_host_up(b, false); });
  kernel.post(usec(20), [&] { network.set_host_up(b, true); });
  kernel.run();
  EXPECT_TRUE(take_all(network, a, b).empty());
  // In flight when sent, not when purged: no drop is counted.
  EXPECT_EQ(network.totals().dropped_packets, 0u);

  // A beacon that landed before the host went down stays readable.
  network.beacon(a, b);
  kernel.post(msec(1), [&] { network.set_host_up(b, false); });
  kernel.run();
  EXPECT_EQ(take_all(network, a, b).size(), 1u);
}

TEST_F(NetFixture, BeaconNotVisibleAtOrBeforeItsArrival) {
  LinkParams link;
  link.propagation = usec(100);
  link.jitter_stddev = kTimeZero;
  link.bandwidth_bytes_per_sec = 1e6;  // 21 bytes take 21 us
  network.set_link_params(a, b, link);
  network.beacon(a, b);
  const SimTime arrival = usec(121);
  EXPECT_TRUE(take_all(network, a, b, arrival - nsec(1)).empty());
  EXPECT_TRUE(take_all(network, a, b, arrival).empty());
  EXPECT_EQ(take_all(network, a, b, arrival + nsec(1)), std::vector<SimTime>{arrival});
  EXPECT_TRUE(take_all(network, a, b).empty());  // taken once
}

TEST(LinkHelpers, FragmentCounts) {
  EXPECT_EQ(fragment_count(0), 1u);
  EXPECT_EQ(fragment_count(1), 1u);
  EXPECT_EQ(fragment_count(1400), 1u);
  EXPECT_EQ(fragment_count(1401), 2u);
  EXPECT_EQ(fragment_count(14000), 10u);
}

TEST(LinkHelpers, WireBytesIncludePerFragmentHeaders) {
  EXPECT_EQ(wire_bytes(100, 50), 150u);
  EXPECT_EQ(wire_bytes(2800, 50), 2800u + 2u * 50u);
}

TEST(FaultPlan, CrashAndRestartProcesses) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId h = network.add_host("h");
  sim::Process p(kernel, ProcessId{1}, h, "p");

  FaultPlan plan;
  plan.crash_process(msec(10), p.id());
  plan.restart_process(msec(20), p.id());
  plan.arm(kernel, network, {&p});

  kernel.run_until(msec(15));
  EXPECT_FALSE(p.alive());
  kernel.run_until(msec(25));
  EXPECT_TRUE(p.alive());
}

TEST(FaultPlan, NodeCrashKillsResidentProcesses) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId h0 = network.add_host("h0");
  const NodeId h1 = network.add_host("h1");
  sim::Process p0(kernel, ProcessId{1}, h0, "p0");
  sim::Process p1(kernel, ProcessId{2}, h1, "p1");

  FaultPlan plan;
  plan.crash_node(msec(10), h0);
  plan.restore_node(msec(30), h0);
  plan.arm(kernel, network, {&p0, &p1});

  kernel.run_until(msec(20));
  EXPECT_FALSE(p0.alive());
  EXPECT_TRUE(p1.alive());
  EXPECT_FALSE(network.host_up(h0));
  kernel.run_until(msec(40));
  EXPECT_TRUE(network.host_up(h0));
}

TEST(FaultPlan, SlowHostWindowIsPerformanceFault) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId h = network.add_host("h");
  FaultPlan plan;
  plan.slow_host(msec(10), msec(20), h, 4.0);
  plan.arm(kernel, network, {});
  kernel.run_until(msec(15));
  EXPECT_DOUBLE_EQ(network.cpu(h).slowdown(), 4.0);
  kernel.run_until(msec(25));
  EXPECT_DOUBLE_EQ(network.cpu(h).slowdown(), 1.0);
}

TEST(FaultPlan, LossBurstWindowRestoresCleanLink) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId a = network.add_host("a");
  const NodeId b = network.add_host("b");
  FaultPlan plan;
  plan.loss_burst(msec(10), msec(20), a, b, 0.7);
  plan.arm(kernel, network, {});
  kernel.run_until(msec(15));
  EXPECT_DOUBLE_EQ(network.link_params(a, b).loss_probability, 0.7);
  EXPECT_DOUBLE_EQ(network.link_params(b, a).loss_probability, 0.7);
  kernel.run_until(msec(25));
  EXPECT_DOUBLE_EQ(network.link_params(a, b).loss_probability, 0.0);
}

}  // namespace
}  // namespace vdep::net
