#include "shard/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace vdep::shard {

namespace {
constexpr std::uint64_t kFirstDataGroupValue = 10;
static_assert(kObjectKey == harness::ReplicaGroup::kObjectKey);
constexpr SimTime kBootStagger = msec(1);
constexpr std::uint64_t kMigratorPid = 4000;
constexpr int kDirectoryReplicas = 2;
constexpr auto kDirectoryStyle = replication::ReplicationStyle::kActive;
constexpr double kShardSloAvailabilityTarget = 0.99;
// run_workload: half the ops are puts; the first op issues at this time.
constexpr double kPutRatio = 0.5;
constexpr SimTime kWorkloadStart = msec(300);

// `prefix` then `n` in decimal. Appended rather than written
// `prefix + std::to_string(n)`, which GCC 12 at -O3 misreads as an
// overlapping copy (-Wrestrict).
std::string numbered(const char* prefix, std::int64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

ShardedClusterConfig normalized(ShardedClusterConfig config) {
  VDEP_ASSERT(config.shards >= 1);
  VDEP_ASSERT(config.clients >= 1);
  VDEP_ASSERT(config.server_hosts >= 1);
  config.client_hosts = std::max(1, std::min(config.client_hosts, config.clients));
  return config;
}
}  // namespace

ShardedCluster::ShardedCluster(ShardedClusterConfig config)
    : config_(normalized(std::move(config))),
      fabric_({.seed = config_.seed,
               .client_hosts = config_.client_hosts,
               .server_hosts = config_.server_hosts,
               .tracing = config_.tracing,
               .health = config_.health}) {
  const std::vector<NodeId>& servers = fabric_.server_hosts();
  initial_map_ = ShardMap::uniform(config_.shards, kFirstDataGroupValue,
                                   config_.default_policy);
  next_group_value_ =
      kFirstDataGroupValue + static_cast<std::uint64_t>(config_.shards);

  // Directory group.
  ShardPolicy dir_policy;
  dir_policy.style = static_cast<std::uint8_t>(kDirectoryStyle);
  dir_policy.checkpoint_every_requests = 10;
  auto& directory = add_group(directory_group(), dir_policy);
  for (int r = 0; r < kDirectoryReplicas; ++r) {
    directory.add_node(servers[static_cast<std::size_t>(r) % servers.size()]);
  }

  // One data group per shard, replicas co-located round-robin on the server
  // hosts.
  std::size_t placement = static_cast<std::size_t>(kDirectoryReplicas);
  for (const auto& entry : initial_map_.entries()) {
    auto& group = add_group(entry.group, entry.policy);
    for (int r = 0; r < entry.policy.replicas; ++r) {
      group.add_node(servers[placement++ % servers.size()]);
    }
  }

  // Staggered boots: one replica per tick so views form without join storms.
  int boot_slot = 0;
  for (auto& group : groups_) {
    for (int node = 0; node < group->size(); ++node) {
      kernel().post(kBootStagger * (++boot_slot), [g = group.get(), node] {
        g->start(node, /*join_existing=*/false);
      });
    }
  }

  // Clients with routers.
  for (int c = 0; c < config_.clients; ++c) {
    const NodeId host = fabric_.client_host(c % config_.client_hosts);
    auto& client = fabric_.add_client(host);
    client.orb.use_transport(std::make_unique<replication::ClientCoordinator>(
        network(), fabric_.daemon_on(host), client.process));
    routers_.push_back(std::make_unique<ShardRouter>(client.orb, initial_map_, &metrics()));
  }

  // Migration controller on the (never-faulted) first client host.
  const NodeId migrator_host = fabric_.client_host(0);
  migration_ = std::make_unique<MigrationController>(
      network(), fabric_.daemon_on(migrator_host), kernel(), ProcessId{kMigratorPid},
      migrator_host, &metrics());

  metrics().set_gauge("shard.map_epoch", static_cast<double>(initial_map_.epoch()));
  metrics().set_gauge("shard.count", static_cast<double>(config_.shards));

  if (health_enabled()) {
    for (const auto& entry : initial_map_.entries()) {
      monitor::health::SloSpec slo;
      const std::string prefix = "shard." + std::to_string(entry.shard);
      slo.name = prefix;
      slo.latency_metric = prefix + ".latency_us";
      slo.request_counter = prefix + ".ops";
      slo.failure_counter = prefix + ".failed";
      slo.latency_p99_target_us = config_.shard_slo_p99_target_us;
      slo.availability_target = kShardSloAvailabilityTarget;
      health().add_slo(slo);
    }
  }
}

harness::ReplicaGroup& ShardedCluster::add_group(GroupId id, const ShardPolicy& policy) {
  harness::ReplicaGroup::Config group;
  group.id = id;
  group.name_prefix = numbered("g", static_cast<std::int64_t>(id.value())) + "r";
  group.style = static_cast<replication::ReplicationStyle>(policy.style);
  group.params.checkpoint_interval = config_.checkpoint_interval;
  group.params.checkpoint_every_requests = policy.checkpoint_every_requests;
  group.params.checkpoint_anchor_interval = policy.checkpoint_anchor_interval;
  group.auto_recover = config_.auto_recover;
  // Seeded nodes start from the initial map / owned ranges; blank ones fill
  // in via state transfer or shard.install.
  group.make_servant = [this, id](int, bool blank)
      -> std::unique_ptr<replication::Checkpointable> {
    if (id == directory_group()) {
      if (blank) return std::make_unique<DirectoryServant>();
      return std::make_unique<DirectoryServant>(initial_map_);
    }
    if (blank) return std::make_unique<ShardServant>();
    return std::make_unique<ShardServant>(initial_map_.ranges_of(id), initial_map_.epoch());
  };
  group.grow_host = [this] { return pick_server_host(); };
  groups_.push_back(std::make_unique<harness::ReplicaGroup>(fabric_, std::move(group)));
  return *groups_.back();
}

NodeId ShardedCluster::pick_server_host() const {
  // Fewest resident replicas wins; ties break on host order (deterministic).
  std::map<NodeId, int> load;
  for (const auto& g : groups_) {
    for (int i = 0; i < g->size(); ++i) {
      const auto& n = g->node(i);
      if (n.live() || !n.started) ++load[n.process.host()];
    }
  }
  const std::vector<NodeId>& servers = fabric_.server_hosts();
  return *std::min_element(servers.begin(), servers.end(),
                           [&load](NodeId a, NodeId b) { return load[a] < load[b]; });
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

// --- knobs ----------------------------------------------------------------------

knobs::VersatileDependability& ShardedCluster::vd(GroupId id) {
  auto& vd = vds_[id.value()];
  if (vd == nullptr) vd = std::make_unique<knobs::VersatileDependability>(group(id));
  return *vd;
}

// --- migration ------------------------------------------------------------------

GroupId ShardedCluster::provision_group(const ShardPolicy& policy) {
  const GroupId id{next_group_value_++};
  auto& group = add_group(id, policy);
  for (int r = 0; r < policy.replicas; ++r) group.add_node(pick_server_host());
  // The first member founds the (empty) group; the rest join it and catch up
  // by state transfer, so a later install reaches every member's state.
  for (int node = 0; node < group.size(); ++node) {
    kernel().post(kBootStagger * (node + 1), [g = &group, node] {
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
      if (--*remaining == 0) kernel().stop();
      return;
    }
    ++st.issued;
    const std::string key = numbered("u", st.rng.range(0, wc.key_space - 1));
    const SimTime issued_at = kernel().now();
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
        const double lat_us = to_usec(kernel().now() - issued_at);
        sampler->add(lat_us);
        metrics().observe("shard.latency_us", lat_us);
        if (health_enabled()) {
          const std::string prefix = "shard." + std::to_string(shard_id);
          metrics().observe(prefix + ".latency_us", lat_us);
          metrics().add(prefix + ".ops");
        }
      } else {
        ++s.failed;
        if (health_enabled()) {
          metrics().add("shard." + std::to_string(shard_id) + ".failed");
        }
      }
      s.last_done = kernel().now();
      kernel().post(gap, [weak_issue, c] {
        if (auto fn = weak_issue.lock()) (*fn)(c);
      });
    };
    if (pick < kPutRatio) {
      r.put(key, numbered("v", st.issued), on_done);
    } else if (pick < kPutRatio + wc.append_ratio) {
      r.append(key, numbered("[t", st.issued) + "]", on_done);
    } else {
      r.get(key, on_done);
    }
  };

  for (int c = 0; c < config_.clients; ++c) {
    (*states)[static_cast<std::size_t>(c)].rng =
        Rng(config_.seed).fork(0xc1a0 + static_cast<std::uint64_t>(c));
    kernel().post_at(kWorkloadStart + wc.stagger * c, [issue_fn, c] { (*issue_fn)(c); });
  }

  kernel().run_until(wc.deadline);

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
  const SimTime window = finished - kWorkloadStart;
  if (window > kTimeZero && result.completed > 0) {
    result.throughput_rps = static_cast<double>(result.completed) / to_sec(window);
  }
  return result;
}

}  // namespace vdep::shard
