#include <gtest/gtest.h>

#include "knobs/availability.hpp"
#include "knobs/cost.hpp"
#include "knobs/design_space.hpp"
#include "knobs/knob.hpp"
#include "knobs/low_level.hpp"
#include "knobs/versatile.hpp"

namespace vdep::knobs {
namespace {

using replication::ReplicationStyle;

// --- cost function: checked against the paper's own Table 2 cost column -----

TEST(CostFunction, ReproducesPaperTable2Costs) {
  // Cost = 0.5 * L/7000 + 0.5 * B/3 with the paper's measured L and B.
  EXPECT_NEAR(configuration_cost(1245.8, 1.074), 0.268, 0.002);
  EXPECT_NEAR(configuration_cost(1457.2, 2.032), 0.443, 0.002);
  EXPECT_NEAR(configuration_cost(4966.0, 1.887), 0.669, 0.002);
  EXPECT_NEAR(configuration_cost(6141.1, 2.315), 0.825, 0.002);
  EXPECT_NEAR(configuration_cost(6006.2, 2.799), 0.895, 0.002);
}

TEST(CostFunction, WeightsAreConvex) {
  CostParams latency_only{1.0, 7000, 3};
  CostParams bandwidth_only{0.0, 7000, 3};
  EXPECT_DOUBLE_EQ(configuration_cost(3500, 999, latency_only), 0.5);
  EXPECT_DOUBLE_EQ(configuration_cost(999, 1.5, bandwidth_only), 0.5);
}

// --- low-level knobs against a fake controller --------------------------------

struct FakeController : ReplicaGroupController {
  void set_style(ReplicationStyle s) override { style_ = s; }
  ReplicationStyle style() const override { return style_; }
  void set_replica_count(int n) override { replicas_ = n; }
  int replica_count() const override { return replicas_; }
  void set_checkpoint_interval(SimTime t) override { interval_ = t; }
  SimTime checkpoint_interval() const override { return interval_; }
  void set_checkpoint_anchor_interval(std::uint32_t k) override { anchor_interval_ = k; }
  std::uint32_t checkpoint_anchor_interval() const override { return anchor_interval_; }

  ReplicationStyle style_ = ReplicationStyle::kWarmPassive;
  int replicas_ = 2;
  SimTime interval_ = msec(50);
  std::uint32_t anchor_interval_ = 1;
};

TEST(LowLevelKnobs, StyleKnobRoundTrips) {
  FakeController controller;
  EXPECT_EQ(controller.read(KnobId::kReplicationStyle),
            Setting{ReplicationStyle::kWarmPassive});
  for (ReplicationStyle style : {ReplicationStyle::kActive, ReplicationStyle::kColdPassive,
                                 ReplicationStyle::kSemiActive, ReplicationStyle::kHybrid,
                                 ReplicationStyle::kWarmPassive}) {
    controller.apply({style});
    EXPECT_EQ(controller.style_, style);
    EXPECT_EQ(controller.read(KnobId::kReplicationStyle), Setting{style});
  }
  EXPECT_EQ((Setting{ReplicationStyle::kActive}).id(), KnobId::kReplicationStyle);
}

TEST(LowLevelKnobs, NumReplicasKnobEnforcesRange) {
  FakeController controller;
  EXPECT_EQ(controller.read(KnobId::kReplicas), Setting{2});
  controller.apply({3});
  EXPECT_EQ(controller.replicas_, 3);
  controller.apply({ReplicaGroupController::kMaxReplicas});
  EXPECT_EQ(controller.replicas_, 8);
  controller.apply({ReplicaGroupController::kMinReplicas});
  EXPECT_EQ(controller.replicas_, 1);
  EXPECT_THROW(controller.apply({0}), std::invalid_argument);
  EXPECT_THROW(controller.apply({9}), std::invalid_argument);
  EXPECT_EQ(controller.replicas_, 1);  // a rejected setting changes nothing
  EXPECT_EQ(controller.read(KnobId::kReplicas), Setting{1});
  EXPECT_EQ((Setting{1}).id(), KnobId::kReplicas);
}

TEST(LowLevelKnobs, CheckpointIntervalKnobUsesMicroseconds) {
  FakeController controller;
  EXPECT_EQ(controller.read(KnobId::kCheckpointInterval), Setting{msec(50)});
  controller.apply({msec(25)});
  EXPECT_EQ(controller.interval_, msec(25));
  EXPECT_EQ(controller.read(KnobId::kCheckpointInterval), Setting{msec(25)});

  // Text at the facade is in microseconds.
  VersatileDependability vd(controller);
  EXPECT_EQ(vd.get("CheckpointInterval"), "25000");
  vd.set("CheckpointInterval", "40000");
  EXPECT_EQ(controller.interval_, msec(40));
}

TEST(LowLevelKnobs, CheckpointAnchorIntervalKnobRoundTrips) {
  FakeController controller;
  EXPECT_EQ(controller.read(KnobId::kCheckpointAnchorInterval), Setting{1u});
  controller.apply({8u});
  EXPECT_EQ(controller.anchor_interval_, 8u);
  EXPECT_EQ(controller.read(KnobId::kCheckpointAnchorInterval), Setting{8u});
  EXPECT_THROW(controller.apply({0u}), std::invalid_argument);  // 1 = deltas off, minimum
  EXPECT_EQ(controller.anchor_interval_, 8u);
  EXPECT_EQ((Setting{8u}).id(), KnobId::kCheckpointAnchorInterval);
}

TEST(LowLevelKnobs, ReadRejectsHighLevelIds) {
  FakeController controller;
  EXPECT_THROW((void)controller.read(KnobId::kScalability), std::invalid_argument);
  EXPECT_THROW((void)controller.read(KnobId::kAvailability), std::invalid_argument);
}

TEST(LowLevelKnobs, ParseStyleNames) {
  for (std::string_view name : kStyleChoices) {
    const std::string text(name);
    EXPECT_EQ(replication::to_string(replication::parse_style(text)), text);
  }
  EXPECT_EQ(replication::parse_style("active"), ReplicationStyle::kActive);
  EXPECT_EQ(replication::parse_style("semi_active"), ReplicationStyle::kSemiActive);
  EXPECT_THROW((void)replication::parse_style(""), std::invalid_argument);
}

// --- design space ---------------------------------------------------------------

DesignSpaceMap synthetic_map() {
  DesignSpaceMap map;
  for (int clients = 1; clients <= 3; ++clients) {
    map.add({{ReplicationStyle::kActive, 3}, clients, 1000.0 * clients,
             50.0, 1.2 * clients, 900.0 / clients, 2});
    map.add({{ReplicationStyle::kWarmPassive, 3}, clients, 3000.0 * clients,
             200.0, 0.8 * clients, 300.0 / clients, 2});
  }
  return map;
}

TEST(DesignSpaceMap, FindAndFilter) {
  const auto map = synthetic_map();
  EXPECT_EQ(map.points().size(), 6u);
  auto p = map.find({ReplicationStyle::kActive, 3}, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->latency_us, 2000.0);
  EXPECT_FALSE(map.find({ReplicationStyle::kActive, 2}, 1).has_value());
  EXPECT_EQ(map.client_counts(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(map.configurations().size(), 2u);
  EXPECT_EQ(map.at_clients(2).size(), 2u);
  // Constraint planes (inclusive): A(3)@{1,2} and P(3)@1 survive; A(3)@3
  // breaks the bandwidth plane (3.6), P(3)@{2,3} the latency plane.
  EXPECT_EQ(map.satisfying(3000, 3.0).size(), 3u);
}

TEST(DesignSpaceMap, NormalizationSpansUnitCube) {
  const auto normalized = synthetic_map().normalized();
  double max_perf = 0;
  double max_res = 0;
  for (const auto& n : normalized) {
    EXPECT_GE(n.performance, 0.0);
    EXPECT_LE(n.performance, 1.0);
    EXPECT_GE(n.resources, 0.0);
    EXPECT_LE(n.resources, 1.0);
    EXPECT_DOUBLE_EQ(n.fault_tolerance, 1.0);  // all points tolerate 2 == max
    max_perf = std::max(max_perf, n.performance);
    max_res = std::max(max_res, n.resources);
  }
  EXPECT_DOUBLE_EQ(max_perf, 1.0);
  EXPECT_DOUBLE_EQ(max_res, 1.0);
}

TEST(Configuration, PaperNotation) {
  EXPECT_EQ((Configuration{ReplicationStyle::kActive, 3}).code(), "A (3)");
  EXPECT_EQ((Configuration{ReplicationStyle::kWarmPassive, 2}).code(), "P (2)");
}

// --- availability knob -------------------------------------------------------------

TEST(Availability, MoreReplicasMoreNines) {
  AvailabilityModel model;
  const double a1 =
      predicted_availability({ReplicationStyle::kWarmPassive, 1}, model);
  const double a2 =
      predicted_availability({ReplicationStyle::kWarmPassive, 2}, model);
  const double a3 =
      predicted_availability({ReplicationStyle::kWarmPassive, 3}, model);
  EXPECT_LT(a1, a2);
  // Beyond two replicas the failover outage dominates; gains saturate.
  EXPECT_LE(a3, 1.0);
  EXPECT_GT(a2, 0.99);
}

TEST(Availability, FasterFailoverHigherAvailability) {
  AvailabilityModel model;
  const double active = predicted_availability({ReplicationStyle::kActive, 2}, model);
  const double warm =
      predicted_availability({ReplicationStyle::kWarmPassive, 2}, model);
  const double cold =
      predicted_availability({ReplicationStyle::kColdPassive, 2}, model);
  EXPECT_GT(active, warm);
  EXPECT_GT(warm, cold);
}

TEST(Availability, ChoosePicksCheapestMeetingTarget) {
  AvailabilityModel model;
  // Modest target: one replica of the frugal style suffices.
  auto modest = choose_for_availability(0.9, model);
  ASSERT_TRUE(modest.has_value());
  EXPECT_EQ(modest->config.replicas, 1);

  // Aggressive target: needs replication and a fast-failover style.
  auto five_nines = choose_for_availability(0.99999, model);
  if (five_nines) {
    EXPECT_GE(five_nines->config.replicas, 2);
    EXPECT_GE(five_nines->availability, 0.99999);
  }

  // Impossible target: nullopt, not a bogus pick.
  EXPECT_FALSE(choose_for_availability(1.1, model).has_value());
}

TEST(Availability, FailoverTimesOrdered) {
  AvailabilityModel model;
  EXPECT_LT(failover_time(ReplicationStyle::kActive, model),
            failover_time(ReplicationStyle::kSemiActive, model));
  EXPECT_LT(failover_time(ReplicationStyle::kSemiActive, model),
            failover_time(ReplicationStyle::kWarmPassive, model));
  EXPECT_LT(failover_time(ReplicationStyle::kWarmPassive, model),
            failover_time(ReplicationStyle::kColdPassive, model));
}

// --- the facade ------------------------------------------------------------------

TEST(VersatileDependability, RegistersStandardKnobsAndActuates) {
  FakeController controller;
  VersatileDependability vd(controller);
  EXPECT_EQ(vd.get("ReplicationStyle"), "warm_passive");
  EXPECT_EQ(vd.get("MinimumNumberReplicas"), "2");
  EXPECT_EQ(vd.get("CheckpointInterval"), "50000");

  vd.set("ReplicationStyle", "active");
  EXPECT_EQ(controller.style_, ReplicationStyle::kActive);

  vd.install_availability_knob(AvailabilityModel{});
  EXPECT_EQ(vd.get("Availability"),
            std::to_string(predicted_availability({ReplicationStyle::kActive, 2},
                                                  AvailabilityModel{})));
  auto choice = vd.tune_for_availability(0.999);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(controller.replicas_, choice->config.replicas);
}

TEST(VersatileDependability, ListsKnobsInTableOrder) {
  FakeController controller;
  VersatileDependability vd(controller);
  auto names = [&vd] {
    std::vector<std::string> out;
    for (const KnobDescriptor& knob : vd.knobs()) out.emplace_back(knob.name);
    return out;
  };
  EXPECT_EQ(names(), (std::vector<std::string>{"CheckpointAnchorInterval",
                                               "CheckpointInterval",
                                               "MinimumNumberReplicas",
                                               "ReplicationStyle"}));
  for (const KnobDescriptor& knob : vd.knobs()) EXPECT_EQ(knob.level, KnobLevel::kLow);
  EXPECT_THROW((void)vd.get("Scalability"), std::out_of_range);
  EXPECT_THROW((void)vd.get("Availability"), std::out_of_range);

  vd.install_scalability_knob(synthetic_map(), ScalabilityRequirements{});
  vd.install_availability_knob(AvailabilityModel{});
  const std::vector<std::string> all = {"Availability",          "CheckpointAnchorInterval",
                                        "CheckpointInterval",    "MinimumNumberReplicas",
                                        "ReplicationStyle",      "Scalability"};
  EXPECT_EQ(names(), all);
  EXPECT_EQ(vd.knobs().front().level, KnobLevel::kHigh);
  EXPECT_EQ(vd.knobs().back().level, KnobLevel::kHigh);
  EXPECT_EQ(vd.knobs()[4].choices.size(), 5u);  // ReplicationStyle
  EXPECT_TRUE(vd.knobs()[3].choices.empty());
}

TEST(VersatileDependability, GetSetRoundTripsEveryKnob) {
  FakeController controller;
  VersatileDependability vd(controller);
  for (std::string_view style : kStyleChoices) {
    vd.set("ReplicationStyle", std::string(style));
    EXPECT_EQ(vd.get("ReplicationStyle"), style);
  }
  vd.set("MinimumNumberReplicas", "5");
  EXPECT_EQ(controller.replicas_, 5);
  EXPECT_EQ(vd.get("MinimumNumberReplicas"), "5");
  vd.set("CheckpointInterval", "125");
  EXPECT_EQ(controller.interval_, usec(125));
  EXPECT_EQ(vd.get("CheckpointInterval"), "125");
  vd.set("CheckpointAnchorInterval", "16");
  EXPECT_EQ(controller.anchor_interval_, 16u);
  EXPECT_EQ(vd.get("CheckpointAnchorInterval"), "16");

  vd.install_scalability_knob(synthetic_map(), ScalabilityRequirements{});
  EXPECT_EQ(vd.get("Scalability"), "");
  vd.set("Scalability", "1");
  EXPECT_EQ(vd.get("Scalability"), "1");

  vd.install_availability_knob(AvailabilityModel{});
  vd.set("Availability", "0.9");
  EXPECT_EQ(controller.replicas_, 1);  // one frugal replica meets 0.9
  EXPECT_EQ(vd.get("Availability"),
            std::to_string(predicted_availability(
                {controller.style_, controller.replicas_}, AvailabilityModel{})));
  // A target one replica cannot meet: style and count both reach the
  // controller, and the knob reads back the choice's availability.
  const auto three_nines = choose_for_availability(0.999, AvailabilityModel{});
  ASSERT_TRUE(three_nines.has_value());
  EXPECT_EQ(three_nines->config.replicas, 2);
  vd.set("Availability", "0.999");
  EXPECT_EQ(controller.style_, three_nines->config.style);
  EXPECT_EQ(controller.replicas_, three_nines->config.replicas);
  EXPECT_EQ(vd.get("Availability"), std::to_string(three_nines->availability));
}

TEST(VersatileDependability, RejectsUnknownNameAndUnparsableText) {
  FakeController controller;
  VersatileDependability vd(controller);
  EXPECT_THROW((void)vd.get("nope"), std::out_of_range);
  EXPECT_THROW(vd.set("nope", "1"), std::out_of_range);
  EXPECT_THROW(vd.set("ReplicationStyle", "bogus"), std::invalid_argument);
  EXPECT_THROW(vd.set("MinimumNumberReplicas", "3x"), std::invalid_argument);
  EXPECT_THROW(vd.set("MinimumNumberReplicas", ""), std::invalid_argument);
  EXPECT_THROW(vd.set("MinimumNumberReplicas", "9"), std::invalid_argument);
  EXPECT_THROW(vd.set("CheckpointInterval", "0x10"), std::invalid_argument);
  EXPECT_THROW(vd.set("CheckpointAnchorInterval", "0"), std::invalid_argument);
  EXPECT_THROW(vd.set("CheckpointAnchorInterval", "-1"), std::invalid_argument);
  EXPECT_THROW(vd.set("CheckpointAnchorInterval", "4294967296"), std::invalid_argument);
  vd.install_availability_knob(AvailabilityModel{});
  EXPECT_THROW(vd.set("Availability", "high"), std::invalid_argument);
  // Nothing above reached the controller.
  EXPECT_EQ(controller.style_, ReplicationStyle::kWarmPassive);
  EXPECT_EQ(controller.replicas_, 2);
  EXPECT_EQ(controller.interval_, msec(50));
  EXPECT_EQ(controller.anchor_interval_, 1u);
}

TEST(VersatileDependability, ScalabilityKnobDrivesController) {
  FakeController controller;
  VersatileDependability vd(controller);
  ScalabilityRequirements requirements;
  requirements.max_latency_us = 7000;
  requirements.max_bandwidth_mbps = 3.0;
  const auto& policy = vd.install_scalability_knob(synthetic_map(), requirements);
  EXPECT_FALSE(policy.entries.empty());

  auto entry = vd.tune_for_clients(2);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(controller.replicas_, entry->config.replicas);
  EXPECT_EQ(controller.style_, entry->config.style);
  EXPECT_EQ(vd.get("Scalability"), "2");

  // An unsupported client count leaves the controller untouched.
  controller.replicas_ = 0;
  EXPECT_FALSE(vd.tune_for_clients(9).has_value());
  EXPECT_EQ(controller.replicas_, 0);
  EXPECT_EQ(controller.style_, entry->config.style);
  EXPECT_EQ(vd.get("Scalability"), "2");
}

}  // namespace
}  // namespace vdep::knobs
