#include <gtest/gtest.h>

#include "knobs/availability.hpp"
#include "knobs/cost.hpp"
#include "knobs/design_space.hpp"
#include "knobs/knob.hpp"
#include "knobs/low_level.hpp"
#include "knobs/throughput.hpp"
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

TEST(CostFunction, CustomFunctionFactory) {
  auto cost = make_paper_cost_function({0.5, 7000, 3});
  EXPECT_NEAR(cost(1245.8, 1.074), 0.268, 0.002);
}

// --- knob registry ------------------------------------------------------------

TEST(KnobRegistry, RegisterFindList) {
  KnobRegistry registry;
  int value = 1;
  registry.register_knob(std::make_unique<FunctionKnob>(
      "TestKnob", KnobLevel::kLow, "a knob",
      [&value] { return std::to_string(value); },
      [&value](const std::string& v) { value = std::stoi(v); },
      std::vector<std::string>{"1", "2"}));

  Knob* k = registry.find("TestKnob");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->get(), "1");
  k->set("2");
  EXPECT_EQ(value, 2);
  EXPECT_EQ(k->choices().size(), 2u);
  EXPECT_EQ(registry.list(KnobLevel::kLow).size(), 1u);
  EXPECT_TRUE(registry.list(KnobLevel::kHigh).empty());
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_THROW((void)registry.at("nope"), std::out_of_range);
}

TEST(KnobRegistry, DuplicateNameRejected) {
  KnobRegistry registry;
  auto make = [] {
    return std::make_unique<FunctionKnob>("K", KnobLevel::kLow, "",
                                          [] { return ""; },
                                          [](const std::string&) {});
  };
  registry.register_knob(make());
  EXPECT_THROW(registry.register_knob(make()), std::invalid_argument);
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
  auto knob = make_replication_style_knob(controller);
  EXPECT_EQ(knob->get(), "warm_passive");
  knob->set("active");
  EXPECT_EQ(controller.style_, ReplicationStyle::kActive);
  EXPECT_THROW(knob->set("bogus"), std::invalid_argument);
  EXPECT_EQ(knob->choices().size(), 5u);
  EXPECT_EQ(knob->level(), KnobLevel::kLow);
}

TEST(LowLevelKnobs, NumReplicasKnobEnforcesRange) {
  FakeController controller;
  auto knob = make_num_replicas_knob(controller, 1, 3);
  knob->set("3");
  EXPECT_EQ(controller.replicas_, 3);
  EXPECT_THROW(knob->set("4"), std::invalid_argument);
  EXPECT_THROW(knob->set("0"), std::invalid_argument);
  EXPECT_EQ(knob->get(), "3");
}

TEST(LowLevelKnobs, CheckpointIntervalKnobUsesMicroseconds) {
  FakeController controller;
  auto knob = make_checkpoint_interval_knob(controller);
  EXPECT_EQ(knob->get(), "50000");
  knob->set("25000");
  EXPECT_EQ(controller.interval_, msec(25));
}

TEST(LowLevelKnobs, CheckpointAnchorIntervalKnobRoundTrips) {
  FakeController controller;
  auto knob = make_checkpoint_anchor_interval_knob(controller);
  EXPECT_EQ(knob->get(), "1");
  knob->set("8");
  EXPECT_EQ(controller.anchor_interval_, 8u);
  EXPECT_EQ(knob->get(), "8");
  EXPECT_THROW(knob->set("0"), std::invalid_argument);  // 1 = deltas off, minimum
  EXPECT_EQ(knob->level(), KnobLevel::kLow);
}

TEST(LowLevelKnobs, ParseStyleNames) {
  EXPECT_EQ(parse_style("active"), ReplicationStyle::kActive);
  EXPECT_EQ(parse_style("semi_active"), ReplicationStyle::kSemiActive);
  EXPECT_THROW((void)parse_style(""), std::invalid_argument);
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

// --- incremental-checkpoint profile ----------------------------------------------

TEST(CheckpointProfileMath, AveragesOneFullPlusDeltasPerAnchorPeriod) {
  const CheckpointProfile profile{1000.0, 50.0, 4};
  // F D D D: (1000 + 3*50) / 4.
  EXPECT_DOUBLE_EQ(profile.average_bytes(), 287.5);
  EXPECT_DOUBLE_EQ(profile.average_ratio(), 0.2875);

  // K = 1: every checkpoint full, ratio exactly 1 (the seed protocol).
  EXPECT_DOUBLE_EQ((CheckpointProfile{1000.0, 50.0, 1}).average_ratio(), 1.0);
  // A delta never counts for more than a full (dense-write worst case).
  EXPECT_DOUBLE_EQ((CheckpointProfile{1000.0, 2000.0, 2}).average_ratio(), 1.0);
  // Empty profile degrades to neutral, not NaN.
  EXPECT_DOUBLE_EQ(CheckpointProfile{}.average_ratio(), 1.0);
}

TEST(Availability, DeltaProfileShrinksPassiveFailoverOnly) {
  AvailabilityModel model;
  const CheckpointProfile profile{10000.0, 1000.0, 10};  // ratio 0.19
  const double ratio = profile.average_ratio();
  EXPECT_NEAR(ratio, 0.19, 1e-9);

  // Warm replay shrinks in proportion; cold keeps its launch component.
  EXPECT_EQ(failover_time(ReplicationStyle::kWarmPassive, model, profile),
            sec_f(to_sec(model.warm_failover) * ratio));
  const SimTime cold = failover_time(ReplicationStyle::kColdPassive, model, profile);
  EXPECT_GT(cold, model.cold_failover - model.warm_failover);
  EXPECT_LT(cold, model.cold_failover);
  // Active styles take no checkpoints: unchanged.
  EXPECT_EQ(failover_time(ReplicationStyle::kActive, model, profile),
            failover_time(ReplicationStyle::kActive, model));

  // Net effect: the same warm-passive pair is predicted more available.
  const Configuration p2{ReplicationStyle::kWarmPassive, 2};
  EXPECT_GT(predicted_availability(p2, model, profile),
            predicted_availability(p2, model));
}

TEST(Availability, DeltaProfileCanUnlockATargetFullSnapshotsMiss) {
  // A model where warm-passive replay is the availability bottleneck.
  AvailabilityModel model;
  model.mttf = sec(600);
  model.warm_failover = msec(800);
  const CheckpointProfile profile{20000.0, 400.0, 16};

  const Configuration p3{ReplicationStyle::kWarmPassive, 3};
  const double target = predicted_availability(p3, model, profile);
  EXPECT_GT(target, predicted_availability(p3, model));

  // choose_for_availability under the profile meets a target the plain
  // model cannot reach with the same allowed styles.
  const std::vector<ReplicationStyle> warm_only = {ReplicationStyle::kWarmPassive};
  auto plain = choose_for_availability(target, model, 3, warm_only);
  auto with_profile =
      choose_for_availability(target, model, profile, 3, warm_only);
  EXPECT_FALSE(plain.has_value());
  ASSERT_TRUE(with_profile.has_value());
  EXPECT_GE(with_profile->availability, target);
}

// --- throughput knob ------------------------------------------------------------

TEST(Throughput, PicksSustainingConfiguration) {
  const auto map = synthetic_map();
  // 450 req/s within 3 MB/s: A(3) at 2 clients does 450.
  auto choice = choose_for_throughput(map, 440, 3.0);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->config.style, ReplicationStyle::kActive);
  EXPECT_GE(choice->throughput_rps, 440);
  // Unreachable rate.
  EXPECT_FALSE(choose_for_throughput(map, 5000, 3.0).has_value());
  // Bandwidth cap excludes everything.
  EXPECT_FALSE(choose_for_throughput(map, 100, 0.1).has_value());
}

// --- the facade ------------------------------------------------------------------

TEST(VersatileDependability, RegistersStandardKnobsAndActuates) {
  FakeController controller;
  VersatileDependability vd(controller);
  EXPECT_NE(vd.registry().find("ReplicationStyle"), nullptr);
  EXPECT_NE(vd.registry().find("MinimumNumberReplicas"), nullptr);
  EXPECT_NE(vd.registry().find("CheckpointInterval"), nullptr);

  vd.registry().at("ReplicationStyle").set("active");
  EXPECT_EQ(controller.style_, ReplicationStyle::kActive);

  vd.install_availability_knob(AvailabilityModel{});
  EXPECT_NE(vd.registry().find("Availability"), nullptr);
  auto choice = vd.tune_for_availability(0.999);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(controller.replicas_, choice->config.replicas);
}

TEST(VersatileDependability, CheckpointProfileActuatesAnchorIntervalKnob) {
  FakeController controller;
  VersatileDependability vd(controller);
  ASSERT_NE(vd.registry().find("CheckpointAnchorInterval"), nullptr);
  EXPECT_EQ(vd.registry().at("CheckpointAnchorInterval").get(), "1");

  vd.set_checkpoint_profile({20000.0, 400.0, 8});
  EXPECT_EQ(controller.anchor_interval_, 8u);
  EXPECT_EQ(vd.registry().at("CheckpointAnchorInterval").get(), "8");
  ASSERT_TRUE(vd.checkpoint_profile().has_value());
  EXPECT_LT(vd.checkpoint_profile()->average_ratio(), 0.15);

  // With the profile installed, availability tuning evaluates passive
  // styles under the rescaled failover model.
  vd.install_availability_knob(AvailabilityModel{});
  auto choice = vd.tune_for_availability(0.999);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(controller.replicas_, choice->config.replicas);
}

TEST(VersatileDependability, ScalabilityKnobDrivesController) {
  FakeController controller;
  VersatileDependability vd(controller);
  ScalabilityRequirements requirements;
  requirements.max_latency_us = 7000;
  requirements.max_bandwidth_mbps = 3.0;
  const auto& policy = vd.install_scalability_knob(synthetic_map(), requirements);
  EXPECT_FALSE(policy.entries.empty());
  EXPECT_NE(vd.registry().find("Scalability"), nullptr);

  auto entry = vd.tune_for_clients(2);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(controller.replicas_, entry->config.replicas);
  EXPECT_EQ(controller.style_, entry->config.style);
  EXPECT_EQ(vd.registry().at("Scalability").get(), "2");

  // An unsupported client count leaves the controller untouched.
  controller.replicas_ = 0;
  EXPECT_FALSE(vd.tune_for_clients(9).has_value());
  EXPECT_EQ(controller.replicas_, 0);
  EXPECT_EQ(controller.style_, entry->config.style);
  EXPECT_EQ(vd.registry().at("Scalability").get(), "2");
}

TEST(VersatileDependability, ContractManagement) {
  FakeController controller;
  VersatileDependability vd(controller);
  adaptive::Contract main;
  main.max_latency_us = 2000;
  adaptive::Contract fallback;
  fallback.max_latency_us = 9000;
  vd.set_contract(main, {fallback});
  ASSERT_NE(vd.contract_monitor(), nullptr);
  EXPECT_DOUBLE_EQ(vd.contract_monitor()->active().max_latency_us, 2000);
}

}  // namespace
}  // namespace vdep::knobs
