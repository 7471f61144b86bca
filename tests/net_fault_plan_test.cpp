// Edge cases of the typed fault-plan: overlapping windows, degenerate
// actions, clamping, and the wire round-trip the chaos shrinker relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/fault_plan.hpp"
#include "net/network.hpp"
#include "sim/actor.hpp"
#include "sim/kernel.hpp"

namespace vdep::net {
namespace {

struct Rig {
  sim::Kernel kernel{1};
  Network network{kernel};
  NodeId a, b, c;
  Rig() : a(network.add_host("a")), b(network.add_host("b")), c(network.add_host("c")) {}
};

TEST(FaultPlanEdge, OverlappingPartitionWindowsStayCutUntilBothLift) {
  Rig rig;
  FaultPlan plan;
  plan.partition_window(msec(10), msec(40), {rig.a}, {rig.b, rig.c});
  plan.partition_window(msec(20), msec(60), {rig.b}, {rig.a, rig.c});
  plan.arm(rig.kernel, rig.network, {});

  rig.kernel.run_until(msec(15));
  EXPECT_TRUE(rig.network.partitioned(rig.a, rig.b));
  EXPECT_FALSE(rig.network.partitioned(rig.b, rig.c));

  rig.kernel.run_until(msec(30));  // both windows active
  EXPECT_TRUE(rig.network.partitioned(rig.a, rig.b));
  EXPECT_TRUE(rig.network.partitioned(rig.b, rig.c));

  rig.kernel.run_until(msec(50));  // first lifted; second must still cut a|b
  EXPECT_TRUE(rig.network.partitioned(rig.a, rig.b));
  EXPECT_TRUE(rig.network.partitioned(rig.b, rig.c));
  EXPECT_FALSE(rig.network.partitioned(rig.a, rig.c));

  rig.kernel.run_until(msec(70));
  EXPECT_FALSE(rig.network.partitioned(rig.a, rig.b));
  EXPECT_FALSE(rig.network.partitioned(rig.b, rig.c));
}

TEST(FaultPlanEdge, OverlappingLossWindowsTakeTheWorstProbability) {
  Rig rig;
  FaultPlan plan;
  plan.loss_burst(msec(10), msec(50), rig.a, rig.b, 0.3);
  plan.loss_burst(msec(20), msec(30), rig.a, rig.b, 0.9);
  plan.arm(rig.kernel, rig.network, {});

  rig.kernel.run_until(msec(15));
  EXPECT_DOUBLE_EQ(rig.network.link_params(rig.a, rig.b).loss_probability, 0.3);
  rig.kernel.run_until(msec(25));
  EXPECT_DOUBLE_EQ(rig.network.link_params(rig.a, rig.b).loss_probability, 0.9);
  rig.kernel.run_until(msec(35));  // inner burst over, outer still on
  EXPECT_DOUBLE_EQ(rig.network.link_params(rig.a, rig.b).loss_probability, 0.3);
  rig.kernel.run_until(msec(55));
  EXPECT_DOUBLE_EQ(rig.network.link_params(rig.a, rig.b).loss_probability, 0.0);
}

TEST(FaultPlanEdge, RestartOfNeverCrashedProcessIsANoop) {
  Rig rig;
  sim::Process p(rig.kernel, ProcessId{7}, rig.a, "p");
  FaultPlan plan;
  plan.restart_process(msec(10), p.id());
  plan.arm(rig.kernel, rig.network, {&p});

  const auto before = p.incarnation();
  rig.kernel.run_until(msec(20));
  EXPECT_TRUE(p.alive());
  EXPECT_EQ(p.incarnation(), before);
}

TEST(FaultPlanEdge, LossProbabilityIsClampedToUnitInterval) {
  Rig rig;
  FaultPlan plan;
  plan.loss_burst(msec(10), msec(30), rig.a, rig.b, 1.7);
  plan.loss_burst(msec(10), msec(30), rig.a, rig.c, -0.4);
  plan.arm(rig.kernel, rig.network, {});

  rig.kernel.run_until(msec(20));
  EXPECT_DOUBLE_EQ(rig.network.link_params(rig.a, rig.b).loss_probability, 1.0);
  EXPECT_DOUBLE_EQ(rig.network.link_params(rig.a, rig.c).loss_probability, 0.0);
}

TEST(FaultPlanEdge, EncodeDecodeRoundTripsEveryKind) {
  FaultPlan plan;
  plan.crash_process(msec(10), ProcessId{4});
  plan.restart_process(msec(20), ProcessId{4});
  plan.crash_node(msec(30), NodeId{2});
  plan.restore_node(msec(40), NodeId{2});
  plan.loss_burst(msec(50), msec(80), NodeId{1}, NodeId{2}, 0.25);
  plan.partition_window(msec(60), msec(90), {NodeId{0}, NodeId{1}}, {NodeId{2}});
  plan.slow_host(msec(70), msec(100), NodeId{1}, 3.5);

  const Bytes wire = plan.encode();
  const FaultPlan copy = FaultPlan::decode(wire);
  EXPECT_EQ(plan, copy);
  EXPECT_EQ(plan.to_string(), copy.to_string());
  EXPECT_EQ(copy.last_effect_end(), msec(100));
}

TEST(FaultPlanEdge, DecodeRejectsCorruptKind) {
  FaultPlan plan;
  plan.crash_process(msec(10), ProcessId{4});
  Bytes wire = plan.encode();
  wire[wire.size() - 1] ^= 0xff;  // corrupt trailing byte
  bool threw = false;
  try {
    (void)FaultPlan::decode(wire);
  } catch (...) {
    threw = true;
  }
  // Either a decode exception or a mismatching plan is acceptable; silently
  // equal plans are not.
  if (!threw) {
    EXPECT_NE(plan, FaultPlan::decode(wire));
  }
}

// A decoded action must satisfy what the builders guarantee. encode()
// refuses such actions, so the frames are patched by hand.
TEST(FaultPlanEdge, DecodeRejectsActionsTheBuildersRefuse) {
  // One action with empty partition sides: u32 count, u8 kind, at, until,
  // pid, node, peer, two empty sets, then the value.
  constexpr std::size_t kUntil = 4 + 1 + 8;
  constexpr std::size_t kValue = kUntil + 8 * 4 + 4 + 4;
  const auto patched = [](const FaultPlan& plan, std::size_t offset, auto v) {
    Bytes bytes = plan.encode();
    EXPECT_EQ(bytes.size(), kValue + 8);
    ByteWriter w(std::span<std::uint8_t>(bytes).subspan(offset, 8));
    if constexpr (std::is_same_v<decltype(v), double>) {
      w.f64(v);
    } else {
      w.i64(v.count());
    }
    return bytes;
  };
  FaultPlan loss;
  loss.loss_burst(msec(10), msec(20), NodeId{1}, NodeId{2}, 0.5);
  FaultPlan slow;
  slow.slow_host(msec(10), msec(20), NodeId{1}, 2.0);
  FaultPlan cut;
  cut.partition_window(msec(10), msec(20), {}, {});

  EXPECT_EQ(FaultPlan::decode(patched(loss, kValue, 1.0)).actions()[0].value, 1.0);
  EXPECT_EQ(FaultPlan::decode(patched(cut, kUntil, msec(10))).actions()[0].until, msec(10));
  for (const Bytes& bad : {patched(loss, kUntil, msec(5)), patched(slow, kUntil, msec(9)),
                           patched(cut, kUntil, msec(5)), patched(loss, kValue, 1.5),
                           patched(loss, kValue, -0.25), patched(loss, kValue, std::nan("")),
                           patched(slow, kValue, 0.0), patched(slow, kValue, -2.0)}) {
    EXPECT_THROW((void)FaultPlan::decode(bad), DecodeError);
  }
}

}  // namespace
}  // namespace vdep::net
