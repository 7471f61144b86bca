#include "harness/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vdep::harness {

namespace {
constexpr GroupId kAppGroup{1};
constexpr GroupId kMonitorGroup{2};
constexpr std::uint16_t kServerPort = 7001;
// Replicas join staggered at boot; clients start once the group is settled.
constexpr SimTime kReplicaBootStagger = msec(1);
constexpr SimTime kClientStartTime = msec(200);
}  // namespace

// Per-replica monitoring and adaptation, rebuilt with every replicator.
// Members drop in reverse order: the adaptation manager before the state
// object it reads.
struct Scenario::Monitoring final : ReplicaGroup::Attachment {
  std::unique_ptr<monitor::ReplicatedStateObject> state;
  std::unique_ptr<adaptive::AdaptationManager> adaptation;
};

struct Scenario::ClientBundle {
  ClientBundle(Scenario& owner, int index, NodeId host, ProcessId pid)
      : index(index),
        process(owner.kernel(), pid, host,
                "client" + std::to_string(index) + "@" +
                    owner.network().host_name(host)),
        orb(owner.network(), process) {}

  int index;
  sim::Process process;
  orb::ClientOrb orb;
  replication::ClientCoordinator* coordinator = nullptr;  // owned by orb
  std::unique_ptr<app::ClosedLoopClient> closed;
  std::unique_ptr<app::OpenLoopClient> open;
};

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  VDEP_ASSERT(config_.clients >= 1);
  VDEP_ASSERT(config_.replicas >= 1);
  config_.max_replicas = std::max(config_.max_replicas, config_.replicas);
  if (config_.health_adaptation) config_.health = true;
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  kernel_ = std::make_unique<sim::Kernel>(config_.seed);
  if (config_.tracing) kernel_->tracer().enable();
  network_ = std::make_unique<net::Network>(*kernel_);
  channels_ = std::make_unique<net::ChannelManager>(*network_);

  // Hosts: clients first (so the first client's daemon is the GCS leader,
  // matching the calibration of the request path), then replica machines.
  std::vector<NodeId> hosts;
  for (int c = 0; c < config_.clients; ++c) {
    hosts.push_back(network_->add_host("cli" + std::to_string(c)));
  }
  for (int r = 0; r < config_.max_replicas; ++r) {
    hosts.push_back(network_->add_host("srv" + std::to_string(r)));
  }

  for (NodeId host : hosts) {
    daemons_.push_back(std::make_unique<gcs::Daemon>(
        *kernel_, *network_, ProcessId{next_pid_++}, host, hosts, config_.daemon));
  }

  if (config_.health) {
    health_ = std::make_unique<monitor::health::HealthMonitor>(
        *kernel_, metrics_, config_.health_params);
    for (auto& d : daemons_) health_->attach(*d);
    if (config_.slos.empty()) {
      monitor::health::SloSpec slo;
      slo.name = "service";
      slo.latency_metric = "service.latency_us";
      slo.request_counter = "service.requests";
      slo.failure_counter = "service.failures";
      health_->add_slo(slo);
    } else {
      for (const auto& slo : config_.slos) health_->add_slo(slo);
    }
    // Queue-depth probes on the replica machines: committed-but-unserved CPU
    // time is the backlog a gray failure (e.g. a slow host) builds up.
    for (int r = 0; r < config_.max_replicas; ++r) {
      const NodeId host{static_cast<std::uint64_t>(config_.clients + r)};
      auto& cpu = network_->cpu(host);
      health_->add_probe("cpu_backlog." + network_->host_name(host),
                         config_.cpu_backlog_threshold_us,
                         [&cpu] { return to_usec(cpu.backlog()); });
    }
    health_->start();
  }

  for (auto& d : daemons_) d->boot();

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
  group.next_pid = [this] { return ProcessId{next_pid_++}; };
  group.daemon_on = [this](NodeId host) -> gcs::Daemon& { return daemon_on(host); };
  group.make_servant = [this](int index, bool) {
    return config_.make_servant ? config_.make_servant(index)
                                : std::make_unique<app::TestServant>(app::TestServant::Config{
                                      config_.state_bytes, config_.reply_bytes,
                                      config_.app_exec_time});
  };
  group.grow_host = [this] { return free_replica_host(); };
  group.on_replicator_created = config_.on_replicator_created;
  group.attach = [this](ReplicaGroup::Node& node) { return attach_monitoring(node); };
  group_ = std::make_unique<ReplicaGroup>(*network_, std::move(group));
  next_pid_ = 1000;
  for (int r = 0; r < config_.replicas; ++r) {
    const int index =
        group_->add_node(NodeId{static_cast<std::uint64_t>(config_.clients + r)});
    kernel_->post(kReplicaBootStagger * (r + 1), [this, index] { boot_replica(index); });
  }

  // Clients.
  next_pid_ = 5000;
  for (int c = 0; c < config_.clients; ++c) {
    const NodeId host{static_cast<std::uint64_t>(c)};
    auto client = std::make_unique<ClientBundle>(*this, c, host, ProcessId{next_pid_++});

    if (config_.replicated) {
      replication::ClientCoordinatorParams params;
      params.policy = config_.response_policy;
      auto coordinator = std::make_unique<replication::ClientCoordinator>(
          *network_, daemon_on(host), client->process, params);
      client->coordinator = coordinator.get();
      client->orb.use_transport(std::move(coordinator));
    } else {
      std::unique_ptr<orb::ClientTransport> transport =
          std::make_unique<orb::DirectClientTransport>(*channels_, host);
      const bool client_intercepted =
          config_.intercept == interpose::InterceptMode::kClientOnly ||
          config_.intercept == interpose::InterceptMode::kBoth;
      if (client_intercepted) {
        transport = std::make_unique<interpose::InterceptOnlyClientTransport>(
            *network_, client->process, std::move(transport));
      }
      client->orb.use_transport(std::move(transport));
    }
    clients_.push_back(std::move(client));
  }
}

void Scenario::boot_replica(int index) {
  if (config_.replicated) {
    group_->start(index, /*join_existing=*/false);
    return;
  }
  // Plain/intercepted TCP server: only replica 0 serves.
  auto& node = group_->node(index);
  node.started = true;
  if (index != 0) return;
  const bool server_intercepted = config_.intercept == interpose::InterceptMode::kServerOnly ||
                                  config_.intercept == interpose::InterceptMode::kBoth;
  if (server_intercepted) {
    intercepting_acceptor_ = std::make_unique<interpose::InterceptOnlyServerAcceptor>(
        *channels_, node.process.host(), kServerPort, node.orb);
  } else {
    acceptor_ = std::make_unique<orb::DirectServerAcceptor>(*channels_, node.process.host(),
                                                            kServerPort, node.orb);
  }
}

std::unique_ptr<ReplicaGroup::Attachment> Scenario::attach_monitoring(
    ReplicaGroup::Node& node) {
  auto monitoring = std::make_unique<Monitoring>();
  if (config_.enable_replicated_state || config_.adaptation) {
    auto* replicator = node.replicator.get();
    auto& process = node.process;
    auto& network = *network_;
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
        std::make_unique<adaptive::HealthThresholdPolicy>(*config_.health_adaptation));
    monitoring->adaptation->set_health_source(health_.get());
    monitoring->adaptation->start();
  }
  return monitoring;
}

NodeId Scenario::free_replica_host() const {
  for (int r = 0; r < config_.max_replicas; ++r) {
    const NodeId host{static_cast<std::uint64_t>(config_.clients + r)};
    bool occupied = false;
    for (int n = 0; n < group_->size(); ++n) {
      const auto& node = group_->node(n);
      occupied = occupied || (node.live() && node.process.host() == host);
    }
    if (!occupied) return host;
  }
  throw std::runtime_error("no free replica host; raise max_replicas");
}

monitor::health::HealthMonitor& Scenario::health() {
  VDEP_ASSERT_MSG(health_ != nullptr,
                  "scenario built without config.health / health_adaptation");
  return *health_;
}

gcs::Daemon& Scenario::daemon_on(NodeId host) {
  for (auto& d : daemons_) {
    if (d->host() == host) return *d;
  }
  throw std::out_of_range("no daemon on host " + host.str());
}

orb::ObjectRef Scenario::object_ref() const {
  orb::ObjectRef ref;
  ref.object_key = ReplicaGroup::kObjectKey;
  ref.direct = orb::DirectProfile{NodeId{static_cast<std::uint64_t>(config_.clients)},
                                  kServerPort};
  ref.group = orb::GroupProfile{kAppGroup};
  return ref;
}

replication::Replicator& Scenario::replicator(int index) {
  auto& r = group_->node(index).replicator;
  VDEP_ASSERT_MSG(r != nullptr, "not a replicated scenario");
  return *r;
}

replication::Checkpointable& Scenario::app(int index) { return *group_->node(index).servant; }

app::TestServant& Scenario::servant(int index) {
  auto* typed = dynamic_cast<app::TestServant*>(group_->node(index).servant.get());
  VDEP_ASSERT_MSG(typed != nullptr, "scenario uses a custom servant; call app()");
  return *typed;
}

sim::Process& Scenario::replica_process(int index) { return group_->node(index).process; }

ProcessId Scenario::replica_pid(int index) const { return group_->node(index).process.id(); }

NodeId Scenario::replica_host(int index) const { return group_->node(index).process.host(); }

void Scenario::arm_faults() {
  if (faults_armed_ || fault_plan_.empty()) return;
  faults_armed_ = true;
  std::vector<sim::Process*> processes;
  for (auto& d : daemons_) processes.push_back(d.get());
  for (int r = 0; r < group_->size(); ++r) processes.push_back(&group_->node(r).process);
  for (auto& c : clients_) processes.push_back(&c->process);
  fault_plan_.arm(*kernel_, *network_, std::move(processes));
}

void Scenario::drain(SimTime extra) { kernel_->run_until(kernel_->now() + extra); }

// --- runs -----------------------------------------------------------------------

ExperimentResult Scenario::run_closed_loop(CycleConfig cycle) {
  arm_faults();

  int warm_remaining = static_cast<int>(clients_.size());
  int done_remaining = static_cast<int>(clients_.size());
  SimTime measure_start = kTimeZero;
  std::uint64_t bytes_at_measure_start = 0;

  for (auto& client : clients_) {
    app::ClosedLoopClient::Config cfg;
    cfg.request_bytes = config_.request_bytes;
    cfg.warmup_requests = cycle.warmup_requests;
    cfg.total_requests = cycle.warmup_requests + cycle.requests_per_client;
    client->closed =
        std::make_unique<app::ClosedLoopClient>(client->orb, object_ref(), cfg);
    client->closed->set_on_warmup_done([&] {
      if (--warm_remaining == 0) {
        measure_start = kernel_->now();
        network_->reset_totals();
        bytes_at_measure_start = 0;
      }
    });
    client->closed->set_on_done([&] {
      if (--done_remaining == 0) kernel_->stop();
    });
    if (health_enabled()) {
      client->closed->set_on_complete([this](double latency_us) {
        metrics_.observe("service.latency_us", latency_us);
        metrics_.add("service.requests");
      });
    }
    const int index = client->index;
    kernel_->post_at(kClientStartTime + usec(250) * index,
                     [this, index] { clients_[index]->closed->start(); });
  }

  kernel_->run_until(cycle.max_duration);

  // Gather.
  ExperimentResult result;
  Sampler merged;
  SimTime last_done = kTimeZero;
  for (auto& client : clients_) {
    merged.merge(client->closed->latencies());
    last_done = std::max(last_done, client->closed->last_completed_at());
    result.completed += static_cast<std::uint64_t>(client->closed->completed());
    if (client->coordinator != nullptr) {
      result.retransmissions += client->coordinator->retransmissions();
    }
  }
  result.avg_latency_us = merged.stats().mean();
  result.jitter_us = merged.stats().stddev();
  result.p50_latency_us = merged.percentile(50);
  result.p99_latency_us = merged.percentile(99);
  result.max_latency_us = merged.stats().max();

  const SimTime window = last_done - measure_start;
  result.duration_s = to_sec(window);
  if (window > kTimeZero) {
    result.bandwidth_mbps =
        static_cast<double>(network_->totals().bytes - bytes_at_measure_start) / 1e6 /
        to_sec(window);
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
    client->open = std::make_unique<app::OpenLoopClient>(
        client->orb, object_ref(), per_client_plan, cfg,
        kernel_->fork_rng(0xc11e0000 + static_cast<std::uint64_t>(client->index)));
    const int index = client->index;
    kernel_->post_at(kClientStartTime + usec(250) * index,
                     [this, index] { clients_[index]->open->start(); });
  }

  // Periodic sampling of the Fig. 6 series.
  const SimTime sample_end = kClientStartTime + config.duration;
  std::function<void()> sample = [&] {
    if (kernel_->now() > sample_end) return;
    auto& head = group_->first_live();
    result.observed_rate.record(kernel_->now(),
                                head.replicator->observed_request_rate());
    const auto style = head.replicator->style();
    const bool active_family = style == replication::ReplicationStyle::kActive ||
                               style == replication::ReplicationStyle::kSemiActive;
    result.style_series.record(kernel_->now(), active_family ? 1.0 : 0.0);
    kernel_->post(config.sample_interval, sample);
  };
  kernel_->post_at(kClientStartTime, sample);

  const std::uint64_t bytes_before = network_->totals().bytes;
  kernel_->run_until(kClientStartTime + config.duration + sec(2));

  Sampler merged;
  for (auto& client : clients_) {
    merged.merge(client->open->latencies());
    result.totals.completed += client->open->completed();
    if (client->coordinator != nullptr) {
      result.totals.retransmissions += client->coordinator->retransmissions();
    }
  }
  result.totals.avg_latency_us = merged.stats().mean();
  result.totals.jitter_us = merged.stats().stddev();
  result.totals.p50_latency_us = merged.percentile(50);
  result.totals.p99_latency_us = merged.percentile(99);
  result.totals.max_latency_us = merged.stats().max();
  result.totals.duration_s = to_sec(config.duration);
  result.totals.bandwidth_mbps =
      static_cast<double>(network_->totals().bytes - bytes_before) / 1e6 /
      to_sec(config.duration);
  result.totals.throughput_rps =
      static_cast<double>(result.totals.completed) / to_sec(config.duration);
  result.totals.faults_tolerated = live_replicas() - 1;
  result.switches = group_->first_live().replicator->switch_history();
  return result;
}

}  // namespace vdep::harness
