// Scenario: builds a complete simulated testbed — a replicated (or plain)
// server and its clients — runs workloads against it and collects the
// metrics the paper reports.
//
// The testbed stands on a harness::Fabric (kernel, network, one daemon per
// host, client endpoints, health plane, fault plan): client hosts first,
// then max_replicas server hosts. The server is one harness::ReplicaGroup,
// exposed as group(): it is the knobs::ReplicaGroupController the knob
// layer actuates (style switches, replica growth/shrink with state transfer,
// checkpoint-interval changes). Scenario itself keeps the Fig. 4 plain and
// intercepted server paths, the service SLO and CPU backlog probes, and the
// per-replica monitoring/adaptation.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adaptive/adaptation_manager.hpp"
#include "app/test_app.hpp"
#include "app/workload.hpp"
#include "harness/fabric.hpp"
#include "harness/replica_group.hpp"
#include "interpose/interposer.hpp"
#include "replication/client_coordinator.hpp"
#include "sim/trace.hpp"

namespace vdep::harness {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  int clients = 1;
  int replicas = 1;
  // Extra pre-provisioned replica hosts so the NumReplicas knob can grow the
  // group at runtime.
  int max_replicas = 3;
  replication::ReplicationStyle style = replication::ReplicationStyle::kActive;

  // Transport mode: replicated (through the replicator + group comm) or the
  // plain/intercepted TCP paths of Fig. 4.
  bool replicated = true;
  interpose::InterceptMode intercept = interpose::InterceptMode::kNone;
  replication::ResponsePolicy response_policy = replication::ResponsePolicy::kFirstReply;

  // Application parameters (Table 1).
  std::size_t request_bytes = calib::kDefaultRequestBytes;
  std::size_t reply_bytes = calib::kDefaultReplyBytes;
  std::size_t state_bytes = calib::kDefaultStateBytes;

  // Low-level knob defaults.
  SimTime checkpoint_interval = calib::kDefaultCheckpointInterval;
  std::uint32_t checkpoint_every_requests = 25;
  // Incremental checkpointing: every K-th checkpoint is a full anchor, the
  // rest are dirty-set deltas. 1 = every checkpoint full (seed protocol).
  std::uint32_t checkpoint_anchor_interval = 1;

  // Monitoring / adaptation (Fig. 6).
  bool enable_replicated_state = false;
  std::optional<adaptive::RateThresholdPolicy::Config> adaptation;

  // Live health plane: a HealthMonitor attached to every daemon, windowed
  // telemetry cut from the scenario registry, per-request latency observed
  // into "service.latency_us"/"service.requests", a default service SLO
  // (override via `slos`) and per-replica-host CPU queue-depth probes.
  bool health = false;
  std::vector<monitor::health::SloSpec> slos;  // empty = one default SLO
  double cpu_backlog_threshold_us = 100'000.0;
  // Health-driven adaptation: each replica gets an AdaptationManager with
  // the HealthMonitor as signal source and a HealthThresholdPolicy (implies
  // `health`).
  bool health_adaptation = false;

  // The application each replica hosts. Default (null): the paper's
  // micro-benchmark TestServant built from the parameters above. Supply a
  // factory to replicate any Checkpointable application (see
  // examples/kv_cluster.cpp). Recovery calls it again: a restarted replica
  // begins from a blank servant and catches up by state transfer.
  std::function<std::unique_ptr<replication::Checkpointable>(int replica_index)>
      make_servant;

  // Observer called every time a replicator is (re)built — initial boot,
  // growth, and crash recovery. The chaos engine attaches its checkpoint /
  // state hooks here so they survive replica re-incarnation.
  std::function<void(int replica_index, replication::Replicator&)> on_replicator_created;

  // When true, a replica process restarted by the fault plan automatically
  // rebuilds its replication stack and rejoins the group with a state
  // transfer (see ReplicaGroup::recover).
  bool auto_recover = false;

  // TEST ONLY — forwarded to ReplicatorParams::skip_reply_dedup (the chaos
  // engine's deliberately injected exactly-once bug).
  bool skip_reply_dedup = false;

  // Enable the kernel's causal tracer: every request, checkpoint round,
  // switch, and adaptation decision records simulation-time spans
  // (export via obs/export.hpp). Off by default; the wire format is
  // identical either way, so timing results do not change.
  bool tracing = false;
};

struct ExperimentResult {
  double avg_latency_us = 0.0;
  double jitter_us = 0.0;  // stddev, the error bars of Fig. 4
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;  // the failover "recovery gap" shows up here
  double bandwidth_mbps = 0.0;
  double throughput_rps = 0.0;
  double duration_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t retransmissions = 0;
  int faults_tolerated = 0;
};

struct OpenLoopResult {
  ExperimentResult totals;
  // Series sampled during the run (Fig. 6 axes).
  sim::TimeSeries observed_rate{"request_rate_rps"};
  sim::TimeSeries style_series{"replication_style"};  // 0 = passive, 1 = active
  std::vector<replication::Replicator::SwitchRecord> switches;
};

class Scenario final {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  // --- runs ---------------------------------------------------------------------
  struct CycleConfig {
    int requests_per_client = calib::kDefaultCycleRequests;
    int warmup_requests = 200;
    SimTime max_duration = sec(600);
  };
  ExperimentResult run_closed_loop() { return run_closed_loop(CycleConfig{}); }
  ExperimentResult run_closed_loop(CycleConfig cycle);

  struct OpenLoopConfig {
    app::RatePlan plan = app::RatePlan::constant(200);
    SimTime duration = sec(30);
    std::size_t request_bytes = calib::kDefaultRequestBytes;
  };
  OpenLoopResult run_open_loop(const OpenLoopConfig& config);

  // --- faults -------------------------------------------------------------------
  // Schedule before calling a run method (armed automatically at run start),
  // or call arm_faults() yourself when driving the kernel manually.
  net::FaultPlan& fault_plan() { return fabric_.fault_plan(); }
  void arm_faults() { fabric_.arm_faults(); }
  // The replica group: node access, recovery (ReplicaGroup::recover) and
  // the knobs::ReplicaGroupController.
  [[nodiscard]] ReplicaGroup& group() { return *group_; }
  [[nodiscard]] ProcessId replica_pid(int index) const { return group_->node(index).process.id(); }
  [[nodiscard]] NodeId replica_host(int index) const { return group_->node(index).process.host(); }

  // --- accessors ----------------------------------------------------------------
  [[nodiscard]] sim::Kernel& kernel() { return fabric_.kernel(); }
  [[nodiscard]] net::Network& network() { return fabric_.network(); }
  [[nodiscard]] replication::Replicator& replicator(int index);
  // The replica's application, generically...
  [[nodiscard]] replication::Checkpointable& app(int index) { return *group_->node(index).servant; }
  // ...and as the default micro-benchmark servant (asserts the scenario was
  // built without a custom factory).
  [[nodiscard]] app::TestServant& servant(int index);
  [[nodiscard]] sim::Process& replica_process(int index) { return group_->node(index).process; }
  [[nodiscard]] gcs::Daemon& daemon_on(NodeId host) { return fabric_.daemon_on(host); }
  // Client endpoint i (on client host i): its ORB invokes through the
  // scenario's transport, so callers can drive their own operations.
  [[nodiscard]] orb::ClientOrb& client_orb(int i) { return fabric_.client(i).orb; }
  [[nodiscard]] NodeId client_host(int i) const { return fabric_.client_host(i); }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] orb::ObjectRef object_ref() const;
  [[nodiscard]] int live_replicas() const { return group_->live_count(); }
  // Health plane (health() asserts config.health / health_adaptation).
  [[nodiscard]] monitor::MetricsRegistry& metrics() { return fabric_.metrics(); }
  [[nodiscard]] bool health_enabled() const { return fabric_.health_enabled(); }
  [[nodiscard]] monitor::health::HealthMonitor& health() { return fabric_.health(); }

  // Lets in-flight work settle after a run stopped at the last client reply
  // (slower replicas may still have executions queued). Call before
  // comparing replica states.
  void drain(SimTime extra = msec(200)) { fabric_.drain(extra); }

  // Consistency probe used by tests: digests of all live, caught-up replicas.
  [[nodiscard]] std::vector<std::uint64_t> live_state_digests() const {
    return group_->live_state_digests();
  }

 private:
  struct Monitoring;
  struct ClientBundle;

  void boot_replica(int index);
  [[nodiscard]] NodeId free_replica_host() const;
  [[nodiscard]] std::unique_ptr<ReplicaGroup::Attachment> attach_monitoring(
      ReplicaGroup::Node& node);

  ScenarioConfig config_;
  Fabric fabric_;
  net::ChannelManager channels_;
  std::unique_ptr<ReplicaGroup> group_;
  // Non-replicated modes (Fig. 4 baseline / interception-only bars).
  std::unique_ptr<orb::DirectServerAcceptor> acceptor_;
  std::unique_ptr<interpose::InterceptOnlyServerAcceptor> intercepting_acceptor_;
  std::vector<ClientBundle> clients_;
};

}  // namespace vdep::harness
