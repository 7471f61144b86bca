#include "harness/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace vdep::harness {

namespace {
constexpr GroupId kAppGroup{1};
constexpr GroupId kMonitorGroup{2};
constexpr std::uint16_t kServerPort = 7001;
// Replicas join staggered at boot; clients start once the group is settled.
constexpr SimTime kReplicaBootStagger = msec(1);
constexpr SimTime kClientStartTime = msec(200);
// Open-loop runs sample the Fig. 6 series at this period.
constexpr SimTime kSampleInterval = msec(100);

ScenarioConfig normalized(ScenarioConfig config) {
  VDEP_ASSERT(config.clients >= 1);
  VDEP_ASSERT(config.replicas >= 1);
  config.max_replicas = std::max(config.max_replicas, config.replicas);
  if (config.health_adaptation) config.health = true;
  return config;
}

// Latency statistics over every client's samples.
void set_latencies(ExperimentResult& result, const Sampler& merged) {
  result.avg_latency_us = merged.stats().mean();
  result.jitter_us = merged.stats().stddev();
  result.p50_latency_us = merged.percentile(50);
  result.p99_latency_us = merged.percentile(99);
  result.max_latency_us = merged.stats().max();
}
}  // namespace

// Per-replica monitoring and adaptation, rebuilt with every replicator.
// Members drop in reverse order: the adaptation manager before the state
// object it reads.
struct Scenario::Monitoring final : ReplicaGroup::Attachment {
  std::unique_ptr<monitor::ReplicatedStateObject> state;
  std::unique_ptr<adaptive::AdaptationManager> adaptation;
};

struct Scenario::ClientBundle {
  explicit ClientBundle(Fabric::Client& endpoint) : endpoint(endpoint) {}

  Fabric::Client& endpoint;
  replication::ClientCoordinator* coordinator = nullptr;  // owned by the orb
  std::unique_ptr<app::ClosedLoopClient> closed;
  std::unique_ptr<app::OpenLoopClient> open;
};

Scenario::Scenario(ScenarioConfig config)
    : config_(normalized(std::move(config))),
      fabric_({.seed = config_.seed,
               .client_hosts = config_.clients,
               .server_hosts = config_.max_replicas,
               .tracing = config_.tracing,
               .health = config_.health}),
      channels_(fabric_.network()) {
  if (health_enabled()) {
    auto& health = fabric_.health();
    if (config_.slos.empty()) {
      monitor::health::SloSpec slo;
      slo.name = "service";
      slo.latency_metric = "service.latency_us";
      slo.request_counter = "service.requests";
      slo.failure_counter = "service.failures";
      health.add_slo(slo);
    } else {
      for (const auto& slo : config_.slos) health.add_slo(slo);
    }
    // Queue-depth probes on the replica machines: committed-but-unserved CPU
    // time is the backlog a gray failure (e.g. a slow host) builds up.
    for (NodeId host : fabric_.server_hosts()) {
      auto& cpu = network().cpu(host);
      health.add_probe("cpu_backlog." + network().host_name(host),
                       config_.cpu_backlog_threshold_us,
                       [&cpu] { return to_usec(cpu.backlog()); });
    }
  }

  // Replicas.
  ReplicaGroup::Config group;
  group.id = kAppGroup;
  group.name_prefix = "replica";
  group.style = config_.style;
  group.params.checkpoint_interval = config_.checkpoint_interval;
  group.params.checkpoint_every_requests = config_.checkpoint_every_requests;
  group.params.checkpoint_anchor_interval = config_.checkpoint_anchor_interval;
  group.params.skip_reply_dedup = config_.skip_reply_dedup;
  group.auto_recover = config_.auto_recover;
  group.make_servant = [this](int index, bool) {
    return config_.make_servant ? config_.make_servant(index)
                                : std::make_unique<app::TestServant>(app::TestServant::Config{
                                      config_.state_bytes, config_.reply_bytes});
  };
  group.grow_host = [this] { return free_replica_host(); };
  group.on_replicator_created = config_.on_replicator_created;
  group.attach = [this](ReplicaGroup::Node& node) { return attach_monitoring(node); };
  group_ = std::make_unique<ReplicaGroup>(fabric_, std::move(group));
  for (int r = 0; r < config_.replicas; ++r) {
    const int index = group_->add_node(fabric_.server_host(r));
    kernel().post(kReplicaBootStagger * (r + 1), [this, index] { boot_replica(index); });
  }

  // Clients.
  for (int c = 0; c < config_.clients; ++c) {
    const NodeId host = fabric_.client_host(c);
    auto& client = clients_.emplace_back(fabric_.add_client(host));
    auto& process = client.endpoint.process;
    auto& orb = client.endpoint.orb;
    if (config_.replicated) {
      replication::ClientCoordinatorParams params;
      params.policy = config_.response_policy;
      auto coordinator = std::make_unique<replication::ClientCoordinator>(
          network(), daemon_on(host), process, params);
      client.coordinator = coordinator.get();
      orb.use_transport(std::move(coordinator));
    } else {
      const bool intercepted = config_.intercept == InterceptMode::kClientOnly ||
                               config_.intercept == InterceptMode::kBoth;
      orb.use_transport(
          std::make_unique<orb::DirectClientTransport>(channels_, process, intercepted));
    }
  }
}

Scenario::~Scenario() = default;

void Scenario::boot_replica(int index) {
  if (config_.replicated) {
    group_->start(index, /*join_existing=*/false);
    return;
  }
  // Plain/intercepted TCP server: only replica 0 serves.
  auto& node = group_->node(index);
  node.started = true;
  if (index != 0) return;
  const bool intercepted = config_.intercept == InterceptMode::kServerOnly ||
                           config_.intercept == InterceptMode::kBoth;
  acceptor_ = std::make_unique<orb::DirectServerAcceptor>(channels_, node.process.host(),
                                                          kServerPort, node.orb, intercepted);
}

std::unique_ptr<ReplicaGroup::Attachment> Scenario::attach_monitoring(
    ReplicaGroup::Node& node) {
  auto monitoring = std::make_unique<Monitoring>();
  if (config_.enable_replicated_state || config_.adaptation) {
    auto* replicator = node.replicator.get();
    auto& process = node.process;
    auto& network = this->network();
    monitoring->state = std::make_unique<monitor::ReplicatedStateObject>(
        daemon_on(process.host()), process, kMonitorGroup,
        [replicator, &process, &network] {
          monitor::StateEntry entry;
          entry.cpu_load = network.cpu(process.host()).load_since_last_sample();
          entry.request_rate = replicator->observed_request_rate();
          return entry;
        });
    monitoring->state->start();
  }
  if (config_.adaptation) {
    monitoring->adaptation = std::make_unique<adaptive::AdaptationManager>(
        *node.replicator, *monitoring->state,
        std::make_unique<adaptive::RateThresholdPolicy>(*config_.adaptation));
    monitoring->adaptation->start();
  } else if (config_.health_adaptation) {
    monitoring->adaptation = std::make_unique<adaptive::AdaptationManager>(
        *node.replicator,
        std::make_unique<adaptive::HealthThresholdPolicy>());
    monitoring->adaptation->set_health_source(&health());
    monitoring->adaptation->start();
  }
  return monitoring;
}

NodeId Scenario::free_replica_host() const {
  for (NodeId host : fabric_.server_hosts()) {
    bool occupied = false;
    for (int n = 0; n < group_->size(); ++n) {
      const auto& node = group_->node(n);
      occupied = occupied || (node.live() && node.process.host() == host);
    }
    if (!occupied) return host;
  }
  throw std::runtime_error("no free replica host; raise max_replicas");
}

orb::ObjectRef Scenario::object_ref() const {
  orb::ObjectRef ref;
  ref.object_key = ReplicaGroup::kObjectKey;
  ref.direct = orb::DirectProfile{fabric_.server_host(0), kServerPort};
  ref.group = orb::GroupProfile{kAppGroup};
  return ref;
}

replication::Replicator& Scenario::replicator(int index) {
  auto& r = group_->node(index).replicator;
  VDEP_ASSERT_MSG(r != nullptr, "not a replicated scenario");
  return *r;
}

app::TestServant& Scenario::servant(int index) {
  auto* typed = dynamic_cast<app::TestServant*>(group_->node(index).servant.get());
  VDEP_ASSERT_MSG(typed != nullptr, "scenario uses a custom servant; call app()");
  return *typed;
}

// --- runs -----------------------------------------------------------------------

ExperimentResult Scenario::run_closed_loop(CycleConfig cycle) {
  arm_faults();

  int warm_remaining = static_cast<int>(clients_.size());
  int done_remaining = static_cast<int>(clients_.size());
  SimTime measure_start = kTimeZero;

  for (auto& client : clients_) {
    app::ClosedLoopClient::Config cfg;
    cfg.request_bytes = config_.request_bytes;
    cfg.warmup_requests = cycle.warmup_requests;
    cfg.total_requests = cycle.warmup_requests + cycle.requests_per_client;
    client.closed =
        std::make_unique<app::ClosedLoopClient>(client.endpoint.orb, object_ref(), cfg);
    client.closed->set_on_warmup_done([&] {
      if (--warm_remaining == 0) {
        measure_start = kernel().now();
        network().reset_totals();
      }
    });
    client.closed->set_on_done([&] {
      if (--done_remaining == 0) kernel().stop();
    });
    if (health_enabled()) {
      client.closed->set_on_complete([this](double latency_us) {
        metrics().observe("service.latency_us", latency_us);
        metrics().add("service.requests");
      });
    }
    const int index = client.endpoint.index;
    kernel().post_at(kClientStartTime + usec(250) * index,
                     [this, index] { clients_[index].closed->start(); });
  }

  kernel().run_until(cycle.max_duration);

  // Gather.
  ExperimentResult result;
  Sampler merged;
  SimTime last_done = kTimeZero;
  for (auto& client : clients_) {
    merged.merge(client.closed->latencies());
    last_done = std::max(last_done, client.closed->last_completed_at());
    result.completed += static_cast<std::uint64_t>(client.closed->completed());
    if (client.coordinator != nullptr) {
      result.retransmissions += client.coordinator->retransmissions();
    }
  }
  set_latencies(result, merged);

  const SimTime window = last_done - measure_start;
  result.duration_s = to_sec(window);
  if (window > kTimeZero) {
    result.bandwidth_mbps =
        static_cast<double>(network().totals().bytes) / 1e6 / to_sec(window);
    result.throughput_rps = static_cast<double>(merged.count()) / to_sec(window);
  }
  result.faults_tolerated = config_.replicated ? live_replicas() - 1 : 0;
  return result;
}

OpenLoopResult Scenario::run_open_loop(const OpenLoopConfig& config) {
  arm_faults();
  OpenLoopResult result;

  // Split the plan's rate across the clients.
  std::vector<app::RatePlan::Segment> scaled;
  for (const auto& seg : config.plan.segments()) {
    scaled.push_back({seg.start, seg.rate_rps / static_cast<double>(clients_.size())});
  }
  const app::RatePlan per_client_plan(scaled);

  for (auto& client : clients_) {
    app::OpenLoopClient::Config cfg;
    cfg.request_bytes = config.request_bytes;
    cfg.duration = config.duration;
    client.open = std::make_unique<app::OpenLoopClient>(
        client.endpoint.orb, object_ref(), per_client_plan, cfg,
        kernel().fork_rng(0xc11e0000 + static_cast<std::uint64_t>(client.endpoint.index)));
    const int index = client.endpoint.index;
    kernel().post_at(kClientStartTime + usec(250) * index,
                     [this, index] { clients_[index].open->start(); });
  }

  // Periodic sampling of the Fig. 6 series.
  const SimTime sample_end = kClientStartTime + config.duration;
  std::function<void()> sample = [&] {
    if (kernel().now() > sample_end) return;
    auto& head = group_->first_live();
    result.observed_rate.record(kernel().now(),
                                head.replicator->observed_request_rate());
    const auto style = head.replicator->style();
    const bool active_family = style == replication::ReplicationStyle::kActive ||
                               style == replication::ReplicationStyle::kSemiActive;
    result.style_series.record(kernel().now(), active_family ? 1.0 : 0.0);
    kernel().post(kSampleInterval, sample);
  };
  kernel().post_at(kClientStartTime, sample);

  const std::uint64_t bytes_before = network().totals().bytes;
  kernel().run_until(kClientStartTime + config.duration + sec(2));

  Sampler merged;
  for (auto& client : clients_) {
    merged.merge(client.open->latencies());
    result.totals.completed += client.open->completed();
    if (client.coordinator != nullptr) {
      result.totals.retransmissions += client.coordinator->retransmissions();
    }
  }
  set_latencies(result.totals, merged);
  result.totals.duration_s = to_sec(config.duration);
  result.totals.bandwidth_mbps =
      static_cast<double>(network().totals().bytes - bytes_before) / 1e6 /
      to_sec(config.duration);
  result.totals.throughput_rps =
      static_cast<double>(result.totals.completed) / to_sec(config.duration);
  result.totals.faults_tolerated = live_replicas() - 1;
  result.switches = group_->first_live().replicator->switch_history();
  return result;
}

}  // namespace vdep::harness
