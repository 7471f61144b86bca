// A replicated key-value store cluster — a realistic application on the
// public API, assembled the way a deployer would:
//
//   1. bring up the simulated testbed and a 3-replica warm-passive group
//      hosting KvStoreServant (via the servant factory);
//   2. load it with typed put/get traffic through a coordinator-backed
//      client ORB;
//   3. kill the primary mid-load and keep operating (the backup replays its
//      log and takes over);
//   4. turn the high-level Availability knob to decide how the next cluster
//      should be provisioned.
//
// Run:  ./kv_cluster [keys=500] [seed=42]
//       ./kv_cluster --shards N [seed=42]   (sharded scale-out mode)
//
// With --shards N the example assembles a shard::ShardedCluster instead: a
// replicated partition directory, one replica group per shard, routed
// clients, and one online shard split performed while the workload runs.
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "app/kv_store.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "knobs/versatile.hpp"
#include "shard/cluster.hpp"
#include "util/config.hpp"

using namespace vdep;

namespace {

int run_sharded(int shards, const Config& cfg) {
  shard::ShardedClusterConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.shards = shards;
  config.clients = static_cast<int>(cfg.get_int("clients", 4));
  config.client_hosts = 2;
  shard::ShardedCluster cluster(config);

  const std::uint64_t epoch_before = cluster.initial_map().epoch();

  // Split the shard owning a known key while the workload is in flight.
  const std::uint32_t h = shard::shard_hash("user:42");
  const shard::ShardEntry victim = *cluster.initial_map().lookup(h);
  bool split_ok = false;
  cluster.kernel().post_at(msec(500), [&] {
    cluster.split_shard(victim.shard, std::max(h, victim.range.lo + 1),
                        cluster.config().default_policy,
                        [&](const shard::MigrationController::Record& rec) {
                          split_ok = rec.success;
                        });
  });

  shard::ShardedCluster::WorkloadConfig wc;
  wc.ops_per_client = static_cast<int>(cfg.get_int("ops", 100));
  const auto result = cluster.run_workload(wc);
  for (int i = 0; i < 10 && !cluster.migration().idle(); ++i) cluster.drain(msec(500));
  cluster.drain();

  std::size_t stray = 0;
  for (GroupId g : cluster.data_groups()) {
    if (cluster.replica_live(g, 0)) stray += cluster.shard_servant(g, 0).stray_keys();
  }

  std::printf("kv_cluster --shards %d — sharded scale-out with an online split\n\n",
              shards);
  harness::Table table({"metric", "value"});
  table.add_row({"shards", std::to_string(shards)});
  table.add_row({"routed clients", std::to_string(config.clients)});
  table.add_row({"ops completed", std::to_string(result.completed) + " / " +
                                      std::to_string(result.completed + result.failed)});
  table.add_row({"sim throughput (req/s)", std::to_string(result.throughput_rps)});
  table.add_row({"online split committed", split_ok ? "yes" : "no"});
  table.add_row({"map epoch", std::to_string(epoch_before) + " -> " +
                                  std::to_string(cluster.directory_map().epoch())});
  table.add_row({"bytes moved", std::to_string(cluster.migration().bytes_moved_total())});
  table.add_row({"stray keys after split", std::to_string(stray)});
  std::printf("%s\n", table.render().c_str());
  return (result.all_done && split_ok && stray == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int shards = 0;
  std::vector<const char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else {
      rest.push_back(argv[i]);
    }
  }
  const Config cfg = Config::from_args(static_cast<int>(rest.size()), rest.data());
  if (shards > 1) return run_sharded(shards, cfg);
  const int keys = static_cast<int>(cfg.get_int("keys", 500));

  harness::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.clients = 1;  // one client endpoint; we drive its traffic below
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.make_servant = [](int) { return std::make_unique<app::KvStoreServant>(); };
  harness::Scenario scenario(config);

  // Let the group form, then schedule the primary's demise mid-load.
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));
  scenario.arm_faults();  // manual kernel driving: arm explicitly
  scenario.kernel().run_until(msec(300));

  // The scenario's client endpoint: its ORB invokes through a replicated
  // (coordinator) transport.
  orb::ClientOrb& orb = scenario.client_orb(0);

  int stored = 0;
  for (int i = 0; i < keys; ++i) {
    scenario.kernel().post(msec(3) * i, [&, i] {
      orb.invoke(scenario.object_ref(), "put",
                 app::KvStoreServant::encode_put("user:" + std::to_string(i),
                                                 "profile-" + std::to_string(i * 7)),
                 [&](orb::ReplyStatus status, Bytes) {
                   if (status == orb::ReplyStatus::kNoException) ++stored;
                 });
    });
  }

  // After the dust settles, read a key written *before* the crash.
  std::string survived;
  scenario.kernel().post_at(msec(3) * keys + sec(1), [&] {
    orb.invoke(scenario.object_ref(), "get", app::KvStoreServant::encode_key("user:42"),
               [&](orb::ReplyStatus, Bytes body) {
                 survived = app::KvStoreServant::decode_get(body).value;
               });
  });
  scenario.kernel().run_until(msec(3) * keys + sec(2));
  scenario.drain();

  std::printf("kv_cluster — replicated key-value store with mid-load failover\n\n");
  harness::Table table({"metric", "value"});
  table.add_row({"puts acknowledged", std::to_string(stored) + " / " + std::to_string(keys)});
  table.add_row({"replicas alive after crash", std::to_string(scenario.live_replicas())});
  table.add_row({"user:42 after failover", survived});
  auto& survivor = dynamic_cast<app::KvStoreServant&>(scenario.app(1));
  table.add_row({"entries at promoted backup", std::to_string(survivor.entries())});
  std::printf("%s\n", table.render().c_str());

  // Capacity question an operator would ask next: what does five nines cost?
  knobs::VersatileDependability vd(scenario.group());
  vd.install_availability_knob(knobs::AvailabilityModel{});
  for (double target : {0.999, 0.99999}) {
    auto choice = vd.tune_for_availability(target);
    if (choice) {
      std::printf("to promise availability >= %.5f deploy %s (predicted %.6f)\n",
                  target, choice->config.code().c_str(), choice->availability);
    } else {
      std::printf("availability >= %.5f is unachievable under this fault model\n",
                  target);
    }
  }
  return 0;
}
