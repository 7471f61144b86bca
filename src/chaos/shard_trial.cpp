#include "chaos/shard_trial.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "shard/cluster.hpp"
#include "util/assert.hpp"

namespace vdep::chaos {

namespace {

// Draws the fault budget into the split windows: crashes strike while a
// range is frozen/donated/installed, partitions and loss bursts silence
// server hosts mid-migration (always < the 500 ms detector threshold), slow
// hosts stretch the window. Clients, their hosts (which carry the GCS
// leader) and the migration controller are never faulted.
net::FaultPlan make_shard_plan(Rng& rng, const TrialConfig& config,
                               shard::ShardedCluster& cluster,
                               const std::vector<SimTime>& split_times) {
  net::FaultPlan plan;
  const SchedulePolicy& p = config.faults;

  std::vector<SimTime> windows = split_times;
  if (windows.empty()) windows.push_back(kWindowStart);
  auto window_at = [&windows](int i) {
    return windows[static_cast<std::size_t>(i) % windows.size()];
  };

  const auto groups = cluster.data_groups();
  std::set<NodeId> server_host_set;
  for (GroupId g : groups) {
    for (int n = 0; n < cluster.replicas_in(g); ++n) {
      server_host_set.insert(cluster.replica_process(g, n).host());
    }
  }
  const std::vector<NodeId> server_hosts(server_host_set.begin(), server_host_set.end());

  int slot = 0;
  // A windowed fault's [strike, lift): it strikes up to `spread_ms` into the
  // next split window.
  auto fault_window = [&](std::uint64_t spread_ms) {
    const SimTime at = window_at(slot++) + msec(static_cast<std::int64_t>(rng.below(spread_ms)));
    const SimTime dur = kMinWindow + usec_f(rng.uniform(0.0, to_usec(kMaxWindow - kMinWindow)));
    return std::pair{at, at + dur};
  };
  for (int i = 0; i < p.crash_recoveries; ++i) {
    const GroupId group = groups[static_cast<std::size_t>(i) % groups.size()];
    const int node =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(config.replicas)));
    const SimTime at =
        window_at(slot++) + msec(100) + msec(static_cast<std::int64_t>(rng.below(200)));
    const SimTime down = kMinDown + usec_f(rng.uniform(0.0, to_usec(kMaxDown - kMinDown)));
    plan.crash_process(at, cluster.replica_pid(group, node));
    plan.restart_process(at + down, cluster.replica_pid(group, node));
  }
  for (int i = 0; i < p.partitions && server_hosts.size() > 1; ++i) {
    const NodeId victim =
        server_hosts[rng.below(static_cast<std::uint64_t>(server_hosts.size()))];
    std::set<NodeId> rest(server_hosts.begin(), server_hosts.end());
    rest.erase(victim);
    const auto [from, to] = fault_window(200);
    plan.partition_window(from, to, {victim}, std::move(rest));
  }
  for (int i = 0; i < p.loss_bursts && server_hosts.size() > 1; ++i) {
    const std::size_t a = rng.below(static_cast<std::uint64_t>(server_hosts.size()));
    std::size_t b = rng.below(static_cast<std::uint64_t>(server_hosts.size() - 1));
    if (b >= a) ++b;
    const auto [from, to] = fault_window(250);
    plan.loss_burst(from, to, server_hosts[a], server_hosts[b],
                    rng.uniform(kMinLoss, kMaxLoss));
  }
  for (int i = 0; i < p.slow_hosts && !server_hosts.empty(); ++i) {
    const NodeId host =
        server_hosts[rng.below(static_cast<std::uint64_t>(server_hosts.size()))];
    const auto [from, to] = fault_window(300);
    plan.slow_host(from, to, host, rng.uniform(kMinSlow, kMaxSlow));
  }
  return plan;
}

// Posts one online split per split time; `rng` picks the fallback shards
// and must outlive the cluster's kernel.
void schedule_splits(shard::ShardedCluster& cluster, Rng& rng,
                     const std::vector<SimTime>& split_times) {
  for (std::size_t j = 0; j < split_times.size(); ++j) {
    cluster.kernel().post_at(split_times[j], [&cluster, &rng, j] {
      const shard::ShardMap& map = cluster.directory_map();
      const auto& entries = map.entries();
      const shard::ShardEntry* pickd = nullptr;
      std::uint32_t point = 0;
      if (j == 0) {
        // The split point is the hash of client 0's log key: that key's
        // sub-range moves while client 0 is mid-traffic on it — the
        // split-during-in-flight-retry edge the router must survive.
        const std::uint32_t h = shard::shard_hash(client_log_key(0));
        const shard::ShardEntry* entry = map.lookup(h);
        if (entry != nullptr && entry->range.lo < entry->range.hi) {
          pickd = entry;
          point = std::max(h, entry->range.lo + 1);
        }
      }
      if (pickd == nullptr) {
        // Deterministic fallback: a random splittable shard, cut mid-range.
        for (std::size_t tries = 0; tries < entries.size(); ++tries) {
          const auto& e = entries[rng.below(entries.size())];
          if (e.range.lo < e.range.hi) {
            pickd = &e;
            point = e.range.lo +
                    static_cast<std::uint32_t>(e.range.width() / 2);
            if (point == e.range.lo) ++point;
            break;
          }
        }
      }
      if (pickd == nullptr) return;  // nothing splittable (degenerate map)
      cluster.split_shard(pickd->shard, point, cluster.config().default_policy);
    });
  }
}

// Sends recorded ops through a client endpoint's shard router.
RecordedClient::Send router_sender(shard::ShardRouter& router) {
  return [&router](const OpRecord& op, const std::string& value, RecordedClient::Done done) {
    auto reply = [done = std::move(done)](shard::ShardStatus status, const Bytes&) {
      done(status == shard::ShardStatus::kOk);
    };
    if (op.op == "append") {
      router.append(op.key, value, std::move(reply));
    } else if (op.op == "put") {
      router.put(op.key, value, std::move(reply));
    } else {
      router.get(op.key, std::move(reply));
    }
  };
}

}  // namespace

TrialResult run_shard_trial(const TrialConfig& config, const net::FaultPlan& plan) {
  VDEP_ASSERT(config.shards > 1);
  // The cluster has no dedup-bug seam and no health plane: running without
  // them would pass a weaker trial than the one asked for.
  if (config.inject_dedup_bug) {
    throw std::invalid_argument("sharded trials do not support TrialConfig::inject_dedup_bug");
  }
  if (config.health) {
    throw std::invalid_argument("sharded trials do not support TrialConfig::health");
  }
  Rng split_rng = Rng(config.seed).fork(0x59117);

  shard::ShardedClusterConfig cc;
  cc.seed = config.seed;
  cc.shards = config.shards;
  cc.default_policy.style = static_cast<std::uint8_t>(config.style);
  cc.default_policy.replicas = static_cast<std::uint8_t>(config.replicas);
  cc.default_policy.checkpoint_every_requests = config.checkpoint_every_requests;
  cc.default_policy.checkpoint_anchor_interval = config.checkpoint_anchor_interval;
  cc.checkpoint_interval = config.checkpoint_interval;
  cc.clients = config.clients;
  cc.client_hosts = std::min(2, config.clients);
  cc.server_hosts = std::clamp(config.shards / 4 + 4, 4, 10);
  cc.tracing = config.record_spans;
  shard::ShardedCluster cluster(cc);

  std::vector<SimTime> split_times;
  for (int j = 0; j < config.splits; ++j) {
    split_times.push_back(msec(600) + msec(900) * j);
  }
  schedule_splits(cluster, split_rng, split_times);

  if (!plan.empty()) {
    cluster.fault_plan() = plan;
  } else if (config.faults.total_actions() > 0) {
    Rng fault_rng = Rng(config.seed).fork(0xfa017);
    cluster.fault_plan() = make_shard_plan(fault_rng, config, cluster, split_times);
  }
  const net::FaultPlan& active_plan = cluster.fault_plan();
  cluster.arm_faults();

  const SimTime last_split = split_times.empty() ? kTimeZero : split_times.back();
  TrialResult result = drive_trial(
      config,
      {.kernel = cluster.kernel(),
       .plan = active_plan,
       .deadline = std::max({kTrialHardDeadline, last_split + sec(6),
                             active_plan.last_effect_end() + config.recovery_bound + sec(2)}),
       .first_op = msec(300),
       .stagger = usec(137),
       .client =
           [&cluster](RecordedClient::Config rc, Rng rng) {
             // Puts and gets use the default key space ("k0".."k63"), shared
             // by all clients and straddling shards.
             return std::make_unique<RecordedClient>(cluster.client_orb(rc.index).process(),
                                                     std::move(rc), rng,
                                                     router_sender(cluster.router(rc.index)));
           },
       .settle =
           [&cluster] {
             // Let in-flight migrations finish (they are bounded by step
             // retries), then settle replies and joins.
             for (int i = 0; i < 20 && !cluster.migration().idle(); ++i) {
               cluster.drain(msec(500));
             }
             cluster.drain(msec(500));
           }});
  TrialObservation& obs = result.observation;

  ShardObservation sobs;
  sobs.initial_epoch = cluster.initial_map().epoch();
  sobs.final_map = cluster.directory_map();
  for (const auto& rec : cluster.migration().history()) {
    ++sobs.migrations_attempted;
    if (rec.success) {
      ++sobs.migrations_committed;
      sobs.committed_maps.push_back(rec.committed_map);
    }
  }
  if (!cluster.migration().idle()) ++sobs.migrations_attempted;  // stuck job

  for (GroupId g : cluster.data_groups()) {
    ShardObservation::GroupState gs;
    gs.group = g;
    // Read the state off the group's responder (first live initialized
    // replica as fallback) — the replica that would answer clients.
    int chosen = -1;
    for (int n = 0; n < cluster.replicas_in(g); ++n) {
      if (!cluster.replica_live(g, n)) continue;
      if (!cluster.replicator(g, n).initialized()) continue;
      if (chosen < 0) chosen = n;
      if (cluster.replicator(g, n).is_responder()) {
        chosen = n;
        break;
      }
    }
    if (chosen >= 0) {
      gs.any_live = true;
      const auto& servant = cluster.shard_servant(g, chosen);
      gs.frozen = servant.frozen();
      gs.owned = servant.owned_ranges();
      for (int c = 0; c < config.clients; ++c) {
        const std::string key = client_log_key(c);
        if (auto value = servant.store().lookup(key)) gs.logs[key] = *value;
      }
      for (const auto& [key, value] : servant.store().items()) gs.keys.insert(key);
    }
    TrialObservation::ReplicaState rs;  // one pseudo-replica per group
    rs.index = static_cast<int>(obs.replicas.size());
    rs.live = rs.responder = gs.any_live;
    obs.replicas.push_back(std::move(rs));
    sobs.groups.push_back(std::move(gs));
  }

  result.verdict = check_shard_ownership(sobs);
  result.verdict.merge(check_shard_migration_integrity(obs, sobs));
  result.verdict.merge(check_bounded_recovery(obs));

  result.shard_observation = std::move(sobs);
  return result;
}

}  // namespace vdep::chaos
