#include "shard/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace vdep::shard {

namespace {
constexpr std::uint64_t kDirectoryGroupValue = 1;
constexpr std::uint64_t kFirstDataGroupValue = 10;
constexpr ObjectId kObjectKey = harness::ReplicaGroup::kObjectKey;
constexpr SimTime kBootStagger = msec(1);
constexpr std::uint64_t kFirstDaemonPid = 100;
constexpr std::uint64_t kMigratorPid = 4000;
constexpr std::uint64_t kFirstClientPid = 5000;
}  // namespace

struct ShardedCluster::ClientBundle {
  ClientBundle(ShardedCluster& owner, int index, NodeId host, ProcessId pid)
      : index(index),
        process(owner.kernel(), pid, host,
                "client" + std::to_string(index) + "@" +
                    owner.network().host_name(host)),
        orb(owner.network(), process) {}

  int index;
  sim::Process process;
  orb::ClientOrb orb;
  std::unique_ptr<ShardRouter> router;
};

ShardedCluster::ShardedCluster(ShardedClusterConfig config)
    : config_(std::move(config)) {
  VDEP_ASSERT(config_.shards >= 1);
  VDEP_ASSERT(config_.clients >= 1);
  VDEP_ASSERT(config_.server_hosts >= 1);
  config_.client_hosts = std::max(1, std::min(config_.client_hosts, config_.clients));
  build();
}

ShardedCluster::~ShardedCluster() = default;

void ShardedCluster::build() {
  kernel_ = std::make_unique<sim::Kernel>(config_.seed);
  if (config_.tracing) kernel_->tracer().enable();
  network_ = std::make_unique<net::Network>(*kernel_);

  // Client hosts first: the lowest-id daemon is the GCS leader/sequencer,
  // and it should live on a machine the fault schedules never touch.
  for (int c = 0; c < config_.client_hosts; ++c) {
    hosts_.push_back(network_->add_host("cli" + std::to_string(c)));
  }
  for (int s = 0; s < config_.server_hosts; ++s) {
    const NodeId host = network_->add_host("srv" + std::to_string(s));
    hosts_.push_back(host);
    server_hosts_.push_back(host);
  }
  std::uint64_t daemon_pid = kFirstDaemonPid;
  for (NodeId host : hosts_) {
    daemons_.push_back(std::make_unique<gcs::Daemon>(
        *kernel_, *network_, ProcessId{daemon_pid++}, host, hosts_,
        config_.daemon));
  }
  for (auto& d : daemons_) d->boot();

  initial_map_ = ShardMap::uniform(config_.shards, kFirstDataGroupValue,
                                   config_.default_policy);
  next_group_value_ =
      kFirstDataGroupValue + static_cast<std::uint64_t>(config_.shards);

  // Directory group.
  ShardPolicy dir_policy;
  dir_policy.style = static_cast<std::uint8_t>(config_.directory_style);
  dir_policy.checkpoint_every_requests = 10;
  auto& directory = add_group(GroupId{kDirectoryGroupValue}, dir_policy);
  for (int r = 0; r < config_.directory_replicas; ++r) {
    directory.add_node(server_hosts_[static_cast<std::size_t>(r) % server_hosts_.size()]);
  }

  // One data group per shard, replicas co-located round-robin on the server
  // hosts.
  std::size_t placement = static_cast<std::size_t>(config_.directory_replicas);
  for (const auto& entry : initial_map_.entries()) {
    auto& group = add_group(entry.group, entry.policy);
    for (int r = 0; r < entry.policy.replicas; ++r) {
      group.add_node(server_hosts_[placement++ % server_hosts_.size()]);
    }
  }

  // Staggered boots: one replica per tick so views form without join storms.
  int boot_slot = 0;
  for (auto& group : groups_) {
    for (int node = 0; node < group->size(); ++node) {
      kernel_->post(kBootStagger * (++boot_slot), [g = group.get(), node] {
        g->start(node, /*join_existing=*/false);
      });
    }
  }

  // Clients with routers.
  for (int c = 0; c < config_.clients; ++c) {
    const NodeId host = hosts_[static_cast<std::size_t>(c) %
                               static_cast<std::size_t>(config_.client_hosts)];
    auto client = std::make_unique<ClientBundle>(
        *this, c, host, ProcessId{kFirstClientPid + static_cast<std::uint64_t>(c)});
    client->orb.use_transport(std::make_unique<replication::ClientCoordinator>(
        *network_, daemon_on(host), client->process, config_.coordinator));
    ShardRouter::Params rp = config_.router;
    rp.object_key = kObjectKey;
    rp.directory_group = GroupId{kDirectoryGroupValue};
    client->router =
        std::make_unique<ShardRouter>(client->orb, initial_map_, rp, &metrics_);
    clients_.push_back(std::move(client));
  }

  // Migration controller on the (never-faulted) first client host.
  MigrationController::Params mp;
  mp.object_key = kObjectKey;
  mp.directory_group = GroupId{kDirectoryGroupValue};
  mp.coordinator = config_.coordinator;
  migration_ = std::make_unique<MigrationController>(
      *network_, daemon_on(hosts_[0]), *kernel_, ProcessId{kMigratorPid},
      hosts_[0], mp, &metrics_);

  metrics_.set_gauge("shard.map_epoch", static_cast<double>(initial_map_.epoch()));
  metrics_.set_gauge("shard.count", static_cast<double>(config_.shards));

  if (config_.health) {
    health_ = std::make_unique<monitor::health::HealthMonitor>(
        *kernel_, metrics_, config_.health_params);
    for (auto& d : daemons_) health_->attach(*d);
    for (const auto& entry : initial_map_.entries()) {
      monitor::health::SloSpec slo;
      const std::string prefix = "shard." + std::to_string(entry.shard);
      slo.name = prefix;
      slo.latency_metric = prefix + ".latency_us";
      slo.request_counter = prefix + ".ops";
      slo.failure_counter = prefix + ".failed";
      slo.latency_p99_target_us = config_.shard_slo_p99_target_us;
      slo.availability_target = config_.shard_slo_availability_target;
      health_->add_slo(slo);
    }
    health_->start();
  }
}

harness::ReplicaGroup& ShardedCluster::add_group(GroupId id, const ShardPolicy& policy) {
  harness::ReplicaGroup::Config group;
  group.id = id;
  group.name_prefix = "g" + std::to_string(id.value()) + "r";
  group.style = static_cast<replication::ReplicationStyle>(policy.style);
  group.params.checkpoint_interval = config_.checkpoint_interval;
  group.params.checkpoint_every_requests = policy.checkpoint_every_requests;
  group.params.checkpoint_anchor_interval = policy.checkpoint_anchor_interval;
  group.auto_recover = config_.auto_recover;
  group.next_pid = [this] { return ProcessId{next_replica_pid_++}; };
  group.daemon_on = [this](NodeId host) -> gcs::Daemon& { return daemon_on(host); };
  // Seeded nodes start from the initial map / owned ranges; blank ones fill
  // in via state transfer or shard.install.
  group.make_servant = [this, id](int, bool blank)
      -> std::unique_ptr<replication::Checkpointable> {
    if (id == directory_group()) {
      if (blank) return std::make_unique<DirectoryServant>();
      return std::make_unique<DirectoryServant>(initial_map_);
    }
    if (blank) return std::make_unique<ShardServant>();
    return std::make_unique<ShardServant>(ShardServant::Config{}, initial_map_.ranges_of(id),
                                          initial_map_.epoch());
  };
  group.grow_host = [this] { return pick_server_host(); };
  groups_.push_back(std::make_unique<harness::ReplicaGroup>(*network_, std::move(group)));
  return *groups_.back();
}

NodeId ShardedCluster::pick_server_host() const {
  // Fewest resident replicas wins; ties break on host order (deterministic).
  std::map<std::uint64_t, int> load;
  for (NodeId h : server_hosts_) load[h.value()] = 0;
  for (const auto& g : groups_) {
    for (int i = 0; i < g->size(); ++i) {
      const auto& n = g->node(i);
      if (n.live() || !n.started) ++load[n.process.host().value()];
    }
  }
  NodeId best = server_hosts_.front();
  int best_load = load[best.value()];
  for (NodeId h : server_hosts_) {
    if (load[h.value()] < best_load) {
      best = h;
      best_load = load[h.value()];
    }
  }
  return best;
}

gcs::Daemon& ShardedCluster::daemon_on(NodeId host) {
  for (auto& d : daemons_) {
    if (d->host() == host) return *d;
  }
  throw std::out_of_range("no daemon on that host");
}

harness::ReplicaGroup& ShardedCluster::group(GroupId id) {
  return const_cast<harness::ReplicaGroup&>(std::as_const(*this).group(id));
}

const harness::ReplicaGroup& ShardedCluster::group(GroupId id) const {
  for (const auto& g : groups_) {
    if (g->id() == id) return *g;
  }
  throw std::out_of_range("unknown group " + std::to_string(id.value()));
}

// --- directory ----------------------------------------------------------------

GroupId ShardedCluster::directory_group() const {
  return GroupId{kDirectoryGroupValue};
}

const ShardMap& ShardedCluster::directory_map() const {
  const auto& dir = group(directory_group());
  if (dir.live_count() == 0) return initial_map_;
  auto* servant = dynamic_cast<const DirectoryServant*>(dir.first_live().servant.get());
  VDEP_ASSERT_MSG(servant != nullptr, "directory node hosts a DirectoryServant");
  return servant->map();
}

// --- groups ---------------------------------------------------------------------

std::vector<GroupId> ShardedCluster::data_groups() const {
  std::vector<GroupId> out;
  for (const auto& g : groups_) {
    if (g->id() != directory_group()) out.push_back(g->id());
  }
  return out;
}

int ShardedCluster::replicas_in(GroupId id) const { return group(id).size(); }

replication::Replicator& ShardedCluster::replicator(GroupId id, int node) {
  auto& r = group(id).node(node).replicator;
  VDEP_ASSERT_MSG(r != nullptr, "replica not started yet");
  return *r;
}

ShardServant& ShardedCluster::shard_servant(GroupId id, int node) {
  VDEP_ASSERT_MSG(id != directory_group(), "directory group has no shard servant");
  auto* servant = dynamic_cast<ShardServant*>(group(id).node(node).servant.get());
  VDEP_ASSERT_MSG(servant != nullptr, "shard node hosts a ShardServant");
  return *servant;
}

sim::Process& ShardedCluster::replica_process(GroupId id, int node) {
  return group(id).node(node).process;
}

ProcessId ShardedCluster::replica_pid(GroupId id, int node) const {
  return group(id).node(node).process.id();
}

bool ShardedCluster::replica_live(GroupId id, int node) const {
  return group(id).node(node).live();
}

void ShardedCluster::recover_replica(GroupId id, int node) { group(id).recover(node); }

// --- knobs ----------------------------------------------------------------------

knobs::ReplicaGroupController& ShardedCluster::controller(GroupId id) { return group(id); }

knobs::VersatileDependability& ShardedCluster::vd(GroupId id) {
  auto it = vds_.find(id.value());
  if (it == vds_.end()) {
    it = vds_.emplace(id.value(), std::make_unique<knobs::VersatileDependability>(group(id)))
             .first;
  }
  return *it->second;
}

// --- clients --------------------------------------------------------------------

ShardRouter& ShardedCluster::router(int client) {
  return *clients_.at(static_cast<std::size_t>(client))->router;
}

orb::ClientOrb& ShardedCluster::client_orb(int client) {
  return clients_.at(static_cast<std::size_t>(client))->orb;
}

// --- migration ------------------------------------------------------------------

GroupId ShardedCluster::provision_group(const ShardPolicy& policy) {
  const GroupId id{next_group_value_++};
  auto& group = add_group(id, policy);
  for (int r = 0; r < policy.replicas; ++r) group.add_node(pick_server_host());
  // The first member founds the (empty) group; the rest join it and catch up
  // by state transfer, so a later install reaches every member's state.
  for (int node = 0; node < group.size(); ++node) {
    kernel_->post(kBootStagger * (node + 1), [g = &group, node] {
      g->start(node, /*join_existing=*/node > 0);
    });
  }
  return id;
}

void ShardedCluster::split_shard(std::uint32_t shard_id, std::uint32_t split_point,
                                 const ShardPolicy& policy,
                                 MigrationController::Done done) {
  const GroupId target = provision_group(policy);
  migration_->split(shard_id, split_point, target, policy, std::move(done));
}

// --- faults ---------------------------------------------------------------------

void ShardedCluster::arm_faults() {
  if (faults_armed_ || fault_plan_.empty()) return;
  faults_armed_ = true;
  std::vector<sim::Process*> processes;
  for (auto& g : groups_) {
    for (int n = 0; n < g->size(); ++n) processes.push_back(&g->node(n).process);
  }
  for (auto& c : clients_) processes.push_back(&c->process);
  fault_plan_.arm(*kernel_, *network_, processes);
}

void ShardedCluster::drain(SimTime extra) {
  kernel_->run_until(kernel_->now() + extra);
}

monitor::health::HealthMonitor& ShardedCluster::health() {
  VDEP_ASSERT_MSG(health_ != nullptr, "cluster built without config.health");
  return *health_;
}

// --- workload -------------------------------------------------------------------

ShardedCluster::WorkloadResult ShardedCluster::run_workload(const WorkloadConfig& wc) {
  arm_faults();

  struct ClientState {
    Rng rng{1};
    int issued = 0;
    int completed = 0;
    std::uint64_t failed = 0;
    SimTime last_done = kTimeZero;
  };
  auto states = std::make_shared<std::vector<ClientState>>(
      static_cast<std::size_t>(config_.clients));
  auto sampler = std::make_shared<Sampler>();
  auto remaining = std::make_shared<int>(config_.clients);

  auto issue_fn = std::make_shared<std::function<void(int)>>();
  // Captured weakly everywhere (a strong self capture would cycle and leak);
  // the local shared_ptr outlives the run_until below, and any gap events
  // that outlive the workload become no-ops.
  std::weak_ptr<std::function<void(int)>> weak_issue = issue_fn;
  *issue_fn = [this, wc, states, sampler, remaining, weak_issue](int c) {
    auto& st = (*states)[static_cast<std::size_t>(c)];
    if (st.issued >= wc.ops_per_client) {
      if (--*remaining == 0) kernel_->stop();
      return;
    }
    ++st.issued;
    const std::string key =
        "u" + std::to_string(st.rng.range(0, wc.key_space - 1));
    const SimTime issued_at = kernel_->now();
    const double pick = st.rng.uniform01();
    auto& r = router(c);
    // Shard attribution for per-shard SLO metrics: by the key's hash position
    // in the initial map (shard ids are stable across splits of a lineage).
    const ShardEntry* entry = initial_map_.lookup_key(key);
    const std::uint32_t shard_id = entry != nullptr ? entry->shard : 0;
    auto on_done = [this, gap = wc.gap, states, sampler, weak_issue, c, issued_at,
                    shard_id](ShardStatus status, const Bytes&) {
      auto& s = (*states)[static_cast<std::size_t>(c)];
      if (status == ShardStatus::kOk) {
        ++s.completed;
        const double lat_us = to_usec(kernel_->now() - issued_at);
        sampler->add(lat_us);
        metrics_.observe("shard.latency_us", lat_us);
        if (health_ != nullptr) {
          const std::string prefix = "shard." + std::to_string(shard_id);
          metrics_.observe(prefix + ".latency_us", lat_us);
          metrics_.add(prefix + ".ops");
        }
      } else {
        ++s.failed;
        if (health_ != nullptr) {
          metrics_.add("shard." + std::to_string(shard_id) + ".failed");
        }
      }
      s.last_done = kernel_->now();
      kernel_->post(gap, [weak_issue, c] {
        if (auto fn = weak_issue.lock()) (*fn)(c);
      });
    };
    if (pick < wc.put_ratio) {
      r.put(key, "v" + std::to_string(st.issued), on_done);
    } else if (pick < wc.put_ratio + wc.append_ratio) {
      r.append(key, "[t" + std::to_string(st.issued) + "]", on_done);
    } else {
      r.get(key, on_done);
    }
  };

  for (int c = 0; c < config_.clients; ++c) {
    (*states)[static_cast<std::size_t>(c)].rng =
        Rng(config_.seed).fork(0xc1a0 + static_cast<std::uint64_t>(c));
    kernel_->post_at(wc.start_at + wc.stagger * c, [issue_fn, c] { (*issue_fn)(c); });
  }

  kernel_->run_until(wc.deadline);

  WorkloadResult result;
  result.all_done = *remaining == 0;
  SimTime finished = kTimeZero;
  for (const auto& st : *states) {
    result.completed += static_cast<std::uint64_t>(st.completed);
    result.failed += st.failed;
    finished = std::max(finished, st.last_done);
  }
  result.finished_at = finished;
  if (sampler->stats().count() > 0) {
    result.avg_latency_us = sampler->stats().mean();
    result.p99_latency_us = sampler->percentile(99);
  }
  const SimTime window = finished - wc.start_at;
  if (window > kTimeZero && result.completed > 0) {
    result.throughput_rps = static_cast<double>(result.completed) / to_sec(window);
  }
  return result;
}

}  // namespace vdep::shard
