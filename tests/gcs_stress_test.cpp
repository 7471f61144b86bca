// Randomized stress of the group-communication core: across seeds, a group
// suffers random multicasts (mixed service levels), random member crashes
// and a possible leader-daemon crash — and the survivors must still agree
// exactly on the data stream and on where each membership change fell in it.
#include <gtest/gtest.h>

#include "gcs/endpoint.hpp"
#include "harness/fabric.hpp"
#include "util/rng.hpp"

namespace vdep::gcs {
namespace {

const GroupId kGroup{1};

struct Member_ {
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<Endpoint> endpoint;
  std::vector<std::string> delivered;
};

class GcsStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcsStress, SurvivorsAgreeUnderRandomFaults) {
  const std::uint64_t seed = GetParam();
  constexpr int kHosts = 5;
  constexpr int kMembers = 4;  // on hosts 1..4; host 0 is the initial leader
  harness::Fabric fabric({.seed = seed, .server_hosts = kHosts});
  sim::Kernel& kernel = fabric.kernel();
  net::Network& network = fabric.network();
  const std::vector<NodeId>& hosts = fabric.server_hosts();

  std::vector<Member_> members(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    auto& m = members[i];
    m.process = std::make_unique<sim::Process>(kernel,
                                               ProcessId{static_cast<std::uint64_t>(10 + i)},
                                               hosts[1 + i % 4],
                                               "m" + std::to_string(i));
    m.endpoint = std::make_unique<Endpoint>(fabric.daemon_on(hosts[1 + i % 4]), *m.process);
    auto* log = &m.delivered;
    m.endpoint->set_message_handler([log](const GroupMessage& gm) {
      log->push_back("msg:" + std::to_string(gm.sender.value()) + ":" +
                     std::string(gm.payload.begin(), gm.payload.end()));
    });
    m.endpoint->set_view_handler([log](const View& v) {
      log->push_back("view:" + std::to_string(v.view_id));
    });
    m.endpoint->join(kGroup);
  }
  kernel.run_until(msec(100));

  // Random traffic + faults, seeded.
  Rng rng(seed * 77 + 1);
  const ServiceType services[] = {ServiceType::kAgreed, ServiceType::kSafe,
                                  ServiceType::kFifo, ServiceType::kReliable};
  int victim = -1;
  const bool kill_leader_daemon = rng.chance(0.3);
  for (int i = 0; i < 120; ++i) {
    const SimTime at = msec(100) + usec(rng.below(900'000));
    const int sender = static_cast<int>(rng.below(kMembers));
    const ServiceType svc = services[rng.below(4)];
    kernel.post_at(at, [&members, sender, svc, i] {
      auto& m = members[sender];
      if (!m.process->alive()) return;
      m.endpoint->multicast(kGroup, svc,
                            Bytes{static_cast<std::uint8_t>(i),
                                  static_cast<std::uint8_t>(i >> 8)});
    });
  }
  if (rng.chance(0.8)) {
    victim = static_cast<int>(rng.below(kMembers));
    kernel.post_at(msec(100) + usec(rng.below(900'000)),
                   [&members, victim] { members[victim].process->crash(); });
  }
  if (kill_leader_daemon) {
    kernel.post_at(msec(100) + usec(rng.below(900'000)), [&] {
      network.set_host_up(hosts[0], false);
      fabric.daemon_on(hosts[0]).crash();
    });
  }
  kernel.run_until(sec(4));

  // Property 1: all surviving members delivered the same data stream.
  std::vector<std::string> reference;
  bool have_reference = false;
  auto msgs_only = [](const std::vector<std::string>& log) {
    std::vector<std::string> out;
    for (const auto& e : log) {
      if (e.rfind("msg:", 0) == 0) out.push_back(e);
    }
    return out;
  };
  for (int i = 0; i < kMembers; ++i) {
    if (!members[i].process->alive()) continue;
    auto msgs = msgs_only(members[i].delivered);
    if (!have_reference) {
      reference = std::move(msgs);
      have_reference = true;
    } else {
      EXPECT_EQ(msgs, reference) << "seed " << seed << " member " << i;
    }
  }
  ASSERT_TRUE(have_reference);

  // Property 2: no duplicates in anyone's stream.
  std::set<std::string> uniq(reference.begin(), reference.end());
  EXPECT_EQ(uniq.size(), reference.size()) << "seed " << seed;

  // Property 3: if a member crashed, every survivor saw the shrink view at
  // the same position in the data stream.
  if (victim >= 0 && !members[victim].process->alive()) {
    int at_position = -2;
    for (int i = 0; i < kMembers; ++i) {
      if (!members[i].process->alive() || i == victim) continue;
      int msg_count = 0;
      int found = -1;
      std::uint64_t max_view = 0;
      for (const auto& e : members[i].delivered) {
        if (e.rfind("view:", 0) == 0) {
          const auto id = std::stoull(e.substr(5));
          if (id > max_view) {
            max_view = id;
            found = msg_count;
          }
        } else {
          ++msg_count;
        }
      }
      if (at_position == -2) {
        at_position = found;
      } else {
        EXPECT_EQ(found, at_position) << "seed " << seed << " member " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcsStress,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                           89u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vdep::gcs
