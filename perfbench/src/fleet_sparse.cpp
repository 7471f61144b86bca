// fleet_sparse: a shard::ShardedCluster of 32 warm-passive shards (2
// replicas each) on 16 server hosts, driven through ShardRouter by many
// routed clients on 8 client hosts. Each client runs a closed loop with a
// seeded exponential think time of mean 8 s and a 50 % put / 20 % append /
// 30 % get mix over 4096 keys; no faults. Most shards are idle in most 50 ms
// checkpoint periods, so the checkpoint path does most of the work, and this
// is the only workload that routes through the shard layer.
#include <cstdio>
#include <functional>
#include <optional>

#include "bench.hpp"
#include "replication/client_coordinator.hpp"
#include "shard/cluster.hpp"

namespace perfbench {
namespace {

using namespace vdep;

constexpr int kShards = 32;
constexpr int kReplicasPerShard = 2;
constexpr int kServerHosts = 16;
constexpr int kClientHosts = 8;
constexpr int kKeys = 4096;
constexpr double kPutRatio = 0.5;
constexpr double kAppendRatio = 0.2;  // the rest are gets
constexpr double kThinkMeanS = 8.0;
constexpr int kClients = 6000;
constexpr SimTime kStartAt = msec(300);
constexpr SimTime kIssueFor = sec(12);  // clients stop issuing after this
constexpr SimTime kDeadline = sec(120);
constexpr int kSetupRunsPerRep = 5;  // extra setup-only runs after each repetition

RequestRep run_once(const Options& options, Mode mode, Report& report) {
  RequestRep rep;
  const bool traced = mode == Mode::kTraced;
  const auto start = Clock::now();

  shard::ShardedClusterConfig config;
  config.seed = options.seed;
  config.shards = kShards;
  config.default_policy.replicas = kReplicasPerShard;
  config.default_policy.style =
      static_cast<std::uint8_t>(replication::ReplicationStyle::kWarmPassive);
  config.server_hosts = kServerHosts;
  config.clients = kClients;
  config.client_hosts = kClientHosts;
  config.tracing = traced;
  shard::ShardedCluster cluster(config);
  sim::Kernel& kernel = cluster.kernel();
  kernel.run_until(kStartAt);  // boot daemons, directory and shard groups
  rep.setup_s = seconds_since(start);
  if (mode == Mode::kSetupOnly) return rep;

  const auto groups = cluster.data_groups();
  if (traced) {
    for (GroupId g : groups) {
      for (int n = 0; n < cluster.replicas_in(g); ++n) {
        rep.watch_checkpoints(cluster.replicator(g, n), [&cluster, g, n] {
          return cluster.shard_servant(g, n).state_digest();
        });
      }
    }
  }

  // Seeded inputs, drawn per client from its own stream: op kind, key and
  // the think time before each op.
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(kClients));
  for (int c = 0; c < kClients; ++c) {
    rngs.push_back(Rng(options.seed).fork(0xf1ee7000 + static_cast<std::uint64_t>(c)));
  }
  const SimTime stop_issuing = kStartAt + kIssueFor;
  int active = kClients;
  std::vector<int> seq(static_cast<std::size_t>(kClients), 0);
  std::function<void(int)> issue;
  auto think_then_issue = [&](int c) {
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    const SimTime think = usec_f(rng.exponential(kThinkMeanS) * 1e6);
    if (kernel.now() + think > stop_issuing) {
      if (--active == 0) kernel.stop();
      return;
    }
    kernel.post(think, [&issue, c] { issue(c); });
  };
  issue = [&](int c) {
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    const std::string key = cat("u", std::to_string(rng.below(kKeys)));
    const double pick = rng.uniform01();
    const int n = ++seq[static_cast<std::size_t>(c)];
    const SimTime issued = kernel.now();
    ++rep.issued;
    auto done = [&, c, issued](shard::ShardStatus status, const Bytes&) {
      if (status == shard::ShardStatus::kOk) {
        ++rep.completed;
        rep.latencies_us.push_back(to_usec(kernel.now() - issued));
      } else {
        ++rep.failed;
      }
      think_then_issue(c);
    };
    auto& router = cluster.router(c);
    const auto t0 = Clock::now();
    if (pick < kPutRatio) {
      router.put(key, cat("v", std::to_string(c), ".", std::to_string(n)), done);
    } else if (pick < kPutRatio + kAppendRatio) {
      router.append(key, cat("[", std::to_string(c), ".", std::to_string(n), "]"), done);
    } else {
      router.get(key, done);
    }
    rep.call_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  };
  for (int c = 0; c < kClients; ++c) think_then_issue(c);

  cluster.network().reset_totals();
  const std::uint64_t events_before = kernel.events_executed();
  const auto run_start = Clock::now();
  StepProfiler profiler(kernel);
  if (traced) {
    profiler.run_until(kDeadline);
  } else {
    kernel.run_until(kDeadline);
  }
  rep.run_s = seconds_since(run_start);
  rep.events = kernel.events_executed() - events_before;
  rep.traffic = cluster.network().totals();
  report.check(active == 0, "fleet_sparse: clients still busy at the deadline");
  report.check(rep.issued == rep.completed + rep.failed,
               "fleet_sparse: issued != completed + failed");

  // After a drain every live replica of a shard holds the same state.
  cluster.drain(msec(500));
  std::string digests;
  for (GroupId g : groups) {
    std::optional<std::uint64_t> agreed;
    for (int n = 0; n < cluster.replicas_in(g); ++n) {
      if (!cluster.replica_live(g, n)) continue;
      const std::uint64_t d = cluster.shard_servant(g, n).state_digest();
      if (!agreed) agreed = d;
      report.check(d == *agreed, "fleet_sparse: replicas of group " +
                                     std::to_string(g.value()) + " disagree");
      rep.add_replicator(cluster.replicator(g, n));
    }
    report.check(agreed.has_value(), "fleet_sparse: group " +
                                         std::to_string(g.value()) + " has no live replica");
    digests += hex64(agreed.value_or(0));
  }
  rep.state_digest = hex64(fnv1a_str(digests));
  for (int c = 0; c < kClients; ++c) {
    const auto& router = cluster.router(c);
    rep.routes += router.routed();
    rep.stale += router.stale_rejections();
    if (auto* coordinator = dynamic_cast<replication::ClientCoordinator*>(
            cluster.client_orb(c).transport())) {
      rep.retries += coordinator->retransmissions();
    }
  }

  if (traced) rep.add_trace(profiler, kernel.tracer());
  rep.seal(start);
  return rep;
}

}  // namespace

void run_fleet_sparse(const Options& options, Report& report) {
  report.unmeasured_layers = {"app", "parallel", "chaos", "health"};
  std::vector<RequestRep> reps;
  std::vector<double> setups;
  const double budget = options.trace ? options.seconds * 0.5 : options.seconds;
  repeat_for(budget, [&](double probe) {
    reps.push_back(run_once(options, Mode::kUntraced, report));
    reps.back().probe_s = probe;
    setups.push_back(normalised_s(reps.back().setup_s, probe));
    for (int i = 0; i < kSetupRunsPerRep; ++i) {
      setups.push_back(normalised_s(run_once(options, Mode::kSetupOnly, report).setup_s, probe));
    }
  });
  std::optional<RequestRep> traced;
  if (options.trace) traced = run_once(options, Mode::kTraced, report);
  report_requests("fleet_sparse", reps, traced ? &*traced : nullptr, setups, report);
}

}  // namespace perfbench
