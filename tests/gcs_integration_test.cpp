// System-level tests of the group-communication subsystem: real daemons over
// the simulated network, exercising total order, view synchrony, SAFE
// delivery, private messages, failure detection and leader takeover.
#include <gtest/gtest.h>

#include "gcs/endpoint.hpp"
#include "harness/fabric.hpp"

namespace vdep::gcs {
namespace {

const GroupId kGroup{1};

struct Member_ {
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<Endpoint> endpoint;
  std::vector<std::string> delivered;   // rendered delivery log
  std::vector<View> views;
  std::vector<PrivateMessage> privates;
};

struct World {
  void build(int hosts, std::uint64_t seed = 1, DaemonParams params = {}) {
    fabric = std::make_unique<harness::Fabric>(
        harness::FabricConfig{.seed = seed, .server_hosts = hosts, .daemon = params});
    kernel = &fabric->kernel();
    network = &fabric->network();
  }

  Daemon& daemon(std::uint64_t host) { return fabric->daemon_on(NodeId{host}); }

  // Creates a process + endpoint on the given host.
  Member_& add_member(NodeId host, std::uint64_t pid) {
    auto m = std::make_unique<Member_>();
    m->process = std::make_unique<sim::Process>(*kernel, ProcessId{pid}, host,
                                                "m" + std::to_string(pid));
    m->endpoint = std::make_unique<Endpoint>(fabric->daemon_on(host), *m->process);
    Member_* raw = m.get();
    m->endpoint->set_message_handler([raw](const GroupMessage& gm) {
      raw->delivered.push_back("msg:" + std::to_string(gm.sender.value()) + ":" +
                               std::string(gm.payload.begin(), gm.payload.end()));
    });
    m->endpoint->set_view_handler([raw](const View& v) {
      raw->views.push_back(v);
      raw->delivered.push_back("view:" + std::to_string(v.view_id) + ":" +
                               std::to_string(v.size()));
    });
    m->endpoint->set_private_handler(
        [raw](const PrivateMessage& pm) { raw->privates.push_back(pm); });
    members.push_back(std::move(m));
    return *members.back();
  }

  static Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

  // Members that joined at different times legitimately see different view
  // prefixes; data-message streams must still agree exactly.
  static std::vector<std::string> msgs_only(const std::vector<std::string>& log) {
    std::vector<std::string> out;
    for (const auto& e : log) {
      if (e.rfind("msg:", 0) == 0) out.push_back(e);
    }
    return out;
  }

  // Number of data messages delivered before the first view of the given
  // view id — the order-position of that membership change.
  static int msgs_before_view(const std::vector<std::string>& log,
                              std::uint64_t view_id) {
    int count = 0;
    const std::string needle = "view:" + std::to_string(view_id) + ":";
    for (const auto& e : log) {
      if (e.rfind(needle, 0) == 0) return count;
      if (e.rfind("msg:", 0) == 0) ++count;
    }
    return -1;
  }

  // Daemons on hosts 0..N-1 with PIDs 100+host; host 0 is the first leader.
  std::unique_ptr<harness::Fabric> fabric;
  sim::Kernel* kernel = nullptr;
  net::Network* network = nullptr;
  std::vector<std::unique_ptr<Member_>> members;
};

struct GcsFixture : ::testing::Test, World {};

TEST_F(GcsFixture, JoinDeliversViewToMember) {
  build(2);
  auto& m = add_member(NodeId{1}, 10);
  m.endpoint->join(kGroup);
  kernel->run_until(msec(50));
  ASSERT_EQ(m.views.size(), 1u);
  EXPECT_EQ(m.views[0].view_id, 1u);
  EXPECT_TRUE(m.views[0].contains(ProcessId{10}));
}

TEST_F(GcsFixture, TotalOrderAcrossMembersOnDifferentHosts) {
  build(3);
  auto& m1 = add_member(NodeId{1}, 10);
  auto& m2 = add_member(NodeId{2}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  // Both fire concurrently; all members must deliver identically.
  for (int i = 0; i < 10; ++i) {
    m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text("a" + std::to_string(i)));
    m2.endpoint->multicast(kGroup, ServiceType::kAgreed, text("b" + std::to_string(i)));
  }
  kernel->run_until(msec(200));

  EXPECT_EQ(msgs_only(m1.delivered), msgs_only(m2.delivered));
  EXPECT_EQ(msgs_only(m1.delivered).size(), 20u);
}

TEST_F(GcsFixture, SenderFifoPreserved) {
  build(2);
  auto& m1 = add_member(NodeId{0}, 10);
  auto& m2 = add_member(NodeId{1}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));
  for (int i = 0; i < 20; ++i) {
    m1.endpoint->multicast(kGroup, ServiceType::kFifo, text(std::to_string(i)));
  }
  kernel->run_until(msec(300));
  std::vector<int> seen;
  for (const auto& d : m2.delivered) {
    if (d.rfind("msg:10:", 0) == 0) seen.push_back(std::stoi(d.substr(7)));
  }
  ASSERT_EQ(seen.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(GcsFixture, NonMemberCanMulticastIntoOpenGroup) {
  build(2);
  auto& server = add_member(NodeId{1}, 10);
  auto& client = add_member(NodeId{0}, 99);
  server.endpoint->join(kGroup);
  kernel->run_until(msec(50));
  client.endpoint->multicast(kGroup, ServiceType::kAgreed, text("req"));
  kernel->run_until(msec(100));
  ASSERT_FALSE(server.delivered.empty());
  EXPECT_EQ(server.delivered.back(), "msg:99:req");
  // The client, not being a member, receives nothing.
  for (const auto& d : client.delivered) EXPECT_EQ(d.rfind("msg:", 0), std::string::npos);
}

TEST_F(GcsFixture, PrivateMessagesReliableFifo) {
  build(2);
  auto& m1 = add_member(NodeId{0}, 10);
  auto& m2 = add_member(NodeId{1}, 20);
  net::LinkParams lossy;
  lossy.loss_probability = 0.3;
  network->set_link_params(NodeId{0}, NodeId{1}, lossy);

  for (int i = 0; i < 20; ++i) {
    m1.endpoint->unicast(ProcessId{20}, NodeId{1}, text(std::to_string(i)));
  }
  kernel->run_until(msec(500));
  ASSERT_EQ(m2.privates.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(std::string(m2.privates[i].payload.begin(), m2.privates[i].payload.end()),
              std::to_string(i));
    EXPECT_EQ(m2.privates[i].sender, ProcessId{10});
  }
  EXPECT_TRUE(m1.privates.empty());
}

TEST_F(GcsFixture, ProcessCrashProducesOrderedViewChange) {
  build(3);
  auto& m1 = add_member(NodeId{1}, 10);
  auto& m2 = add_member(NodeId{2}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  kernel->post(msec(10), [&] { m1.process->crash(); });
  kernel->run_until(msec(200));

  ASSERT_GE(m2.views.size(), 2u);
  const View& last = m2.views.back();
  EXPECT_FALSE(last.contains(ProcessId{10}));
  EXPECT_TRUE(last.contains(ProcessId{20}));
  EXPECT_EQ(last.size(), 1u);
}

TEST_F(GcsFixture, MessagesOrderedConsistentlyWithViewChanges) {
  // The property the switch protocol needs: every survivor sees the same
  // sequence of messages and views.
  build(3);
  auto& m1 = add_member(NodeId{0}, 10);
  auto& m2 = add_member(NodeId{1}, 20);
  auto& m3 = add_member(NodeId{2}, 30);
  for (auto* m : {&m1, &m2, &m3}) m->endpoint->join(kGroup);
  kernel->run_until(msec(50));

  for (int i = 0; i < 30; ++i) {
    m2.endpoint->multicast(kGroup, ServiceType::kAgreed, text("x" + std::to_string(i)));
    if (i == 10) kernel->post(kTimeZero, [&] { m1.process->crash(); });
  }
  kernel->run_until(msec(500));

  // Survivors agree on the data stream and on *where* in it the crash view
  // landed — the "fault notifications are ordered consistently" property.
  EXPECT_EQ(msgs_only(m2.delivered), msgs_only(m3.delivered));
  std::uint64_t shrink_view_id = 0;
  for (const auto& v : m2.views) {
    if (!v.contains(ProcessId{10})) {
      shrink_view_id = v.view_id;
      break;
    }
  }
  ASSERT_GT(shrink_view_id, 0u);
  const int at2 = msgs_before_view(m2.delivered, shrink_view_id);
  const int at3 = msgs_before_view(m3.delivered, shrink_view_id);
  EXPECT_GE(at2, 0);
  EXPECT_EQ(at2, at3);
}

TEST_F(GcsFixture, SafeDeliveryWaitsButArrives) {
  build(3);
  auto& m1 = add_member(NodeId{1}, 10);
  auto& m2 = add_member(NodeId{2}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));
  m1.endpoint->multicast(kGroup, ServiceType::kSafe, text("safe"));
  kernel->run_until(msec(200));  // token rotations establish stability
  int safe_count = 0;
  for (const auto& d : m2.delivered) {
    if (d == "msg:10:safe") ++safe_count;
  }
  EXPECT_EQ(safe_count, 1);
  // Order agreement includes the safe message.
  EXPECT_EQ(msgs_only(m1.delivered), msgs_only(m2.delivered));
}

TEST_F(GcsFixture, LeaderDaemonCrashTakeoverPreservesDelivery) {
  // Host 0 runs the initial leader; members live on hosts 1 and 2. Killing
  // the leader mid-stream must not lose or reorder the survivors' stream.
  build(3);
  auto& m1 = add_member(NodeId{1}, 10);
  auto& m2 = add_member(NodeId{2}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  for (int i = 0; i < 5; ++i) {
    m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text("pre" + std::to_string(i)));
  }
  kernel->post(msec(30), [&] {
    network->set_host_up(NodeId{0}, false);
    daemon(0).crash();
  });
  // After detection + takeover, send more.
  kernel->post(msec(400), [&] {
    for (int i = 0; i < 5; ++i) {
      m1.endpoint->multicast(kGroup, ServiceType::kAgreed,
                             text("post" + std::to_string(i)));
    }
  });
  kernel->run_until(sec(2));

  EXPECT_TRUE(daemon(1).is_leader());
  EXPECT_EQ(msgs_only(m1.delivered), msgs_only(m2.delivered));
  int post = 0;
  for (const auto& d : m1.delivered) {
    if (d.rfind("msg:10:post", 0) == 0) ++post;
  }
  EXPECT_EQ(post, 5);
}

TEST_F(GcsFixture, MultipleGroupsAreIsolated) {
  // One process can belong to several groups (a replicator's app group and
  // its monitor group); traffic must not leak across them.
  build(2);
  auto& m1 = add_member(NodeId{0}, 10);
  auto& m2 = add_member(NodeId{1}, 20);
  const GroupId other{2};
  m1.endpoint->join(kGroup);
  m1.endpoint->join(other);
  m2.endpoint->join(kGroup);  // m2 is NOT in `other`
  kernel->run_until(msec(50));

  m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text("app"));
  m1.endpoint->multicast(other, ServiceType::kAgreed, text("monitor"));
  kernel->run_until(msec(100));

  int app2 = 0;
  int monitor2 = 0;
  for (const auto& d : m2.delivered) {
    if (d == "msg:10:app") ++app2;
    if (d == "msg:10:monitor") ++monitor2;
  }
  EXPECT_EQ(app2, 1);
  EXPECT_EQ(monitor2, 0);
  // m1, a member of both, received both.
  int app1 = 0;
  int monitor1 = 0;
  for (const auto& d : m1.delivered) {
    if (d == "msg:10:app") ++app1;
    if (d == "msg:10:monitor") ++monitor1;
  }
  EXPECT_EQ(app1, 1);
  EXPECT_EQ(monitor1, 1);
}

TEST_F(GcsFixture, VoluntaryLeaveStopsDeliveryAndShrinksView) {
  build(2);
  auto& m1 = add_member(NodeId{0}, 10);
  auto& m2 = add_member(NodeId{1}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  m2.endpoint->leave(kGroup);
  kernel->run_until(msec(100));
  const std::size_t m2_before = m2.delivered.size();

  m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text("post-leave"));
  kernel->run_until(msec(200));

  // The leaver receives nothing further; the survivor sees the shrink view
  // and its own message.
  EXPECT_EQ(m2.delivered.size(), m2_before);
  ASSERT_FALSE(m1.views.empty());
  EXPECT_FALSE(m1.views.back().contains(ProcessId{20}));
  EXPECT_EQ(m1.delivered.back(), "msg:10:post-leave");
}

TEST_F(GcsFixture, SafeMessageSurvivesLeaderTakeoverExactlyOnce) {
  // The hairy path: a SAFE multicast is in flight (awaiting stability) when
  // the leader daemon dies. The new leader must replay the unstable history
  // and re-establish stability so the SAFE message is delivered exactly once
  // at every member, in the same order.
  build(3);
  auto& m1 = add_member(NodeId{1}, 10);
  auto& m2 = add_member(NodeId{2}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text("before"));
  kernel->run_until(msec(60));
  m1.endpoint->multicast(kGroup, ServiceType::kSafe, text("critical"));
  // Kill the leader right after the SAFE message was forwarded, well inside
  // the stability-token window.
  kernel->post(msec(2), [&] {
    network->set_host_up(NodeId{0}, false);
    daemon(0).crash();
  });
  kernel->run_until(sec(2));

  for (auto* m : {&m1, &m2}) {
    int critical = 0;
    for (const auto& d : m->delivered) {
      if (d == "msg:10:critical") ++critical;
    }
    EXPECT_EQ(critical, 1);
  }
  EXPECT_EQ(msgs_only(m1.delivered), msgs_only(m2.delivered));
  EXPECT_TRUE(daemon(1).is_leader());
}

TEST_F(GcsFixture, NodeCrashRemovesItsMemberViaHeartbeatTimeout) {
  build(3);
  auto& m1 = add_member(NodeId{1}, 10);
  auto& m2 = add_member(NodeId{2}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  kernel->post(msec(10), [&] {
    network->set_host_up(NodeId{1}, false);
    daemon(1).crash();
    m1.process->crash();
  });
  kernel->run_until(sec(1));
  ASSERT_FALSE(m2.views.empty());
  EXPECT_FALSE(m2.views.back().contains(ProcessId{10}));
}

TEST_F(GcsFixture, DeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    World f;
    f.build(3, seed);
    auto& m1 = f.add_member(NodeId{1}, 10);
    auto& m2 = f.add_member(NodeId{2}, 20);
    m1.endpoint->join(kGroup);
    m2.endpoint->join(kGroup);
    f.kernel->run_until(msec(50));
    for (int i = 0; i < 10; ++i) {
      m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text(std::to_string(i)));
    }
    f.kernel->run_until(msec(300));
    return m2.delivered;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  // A different seed changes jitter (and thus view interleaving) but never
  // the data stream: same sender, same messages, same order.
  EXPECT_EQ(World::msgs_only(run_once(7)), World::msgs_only(run_once(8)));
}

TEST_F(GcsFixture, MulticastSurvivesTransientLossBurst) {
  build(2, 3);
  auto& m1 = add_member(NodeId{0}, 10);
  auto& m2 = add_member(NodeId{1}, 20);
  m1.endpoint->join(kGroup);
  m2.endpoint->join(kGroup);
  kernel->run_until(msec(50));

  net::LinkParams lossy;
  lossy.loss_probability = 0.5;
  network->set_link_params(NodeId{0}, NodeId{1}, lossy);
  network->set_link_params(NodeId{1}, NodeId{0}, lossy);

  for (int i = 0; i < 25; ++i) {
    m1.endpoint->multicast(kGroup, ServiceType::kAgreed, text(std::to_string(i)));
  }
  kernel->run_until(sec(1));
  EXPECT_EQ(msgs_only(m1.delivered), msgs_only(m2.delivered));
  int msgs = 0;
  for (const auto& d : m2.delivered) {
    if (d.rfind("msg:", 0) == 0) ++msgs;
  }
  EXPECT_EQ(msgs, 25);
}

}  // namespace
}  // namespace vdep::gcs
