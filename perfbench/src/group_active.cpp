// group_active: one 3-replica active group hosting KvStoreServant behind a
// harness::Scenario, saturated by 8 hand-assembled closed-loop clients
// (ClientOrb + ClientCoordinator, one host each) with zero think time and a
// read-heavy mix (80 % get, 20 % put of 16-256 byte values over 1024 keys).
// Active replication never checkpoints, so this workload loads the request
// path: ORB marshal, AGREED ordering, reliable links, replicator
// execute/reply dedup and the application.
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "app/kv_store.hpp"
#include "bench.hpp"
#include "harness/scenario.hpp"

namespace perfbench {
namespace {

using namespace vdep;

constexpr int kClients = 8;
constexpr int kReplicas = 3;
constexpr int kKeys = 1024;
constexpr double kGetRatio = 0.8;
// Put values carry seeded padding, so wire sizes (and the queueing they
// cause) vary from seed to seed.
constexpr int kMinValueBytes = 16;
constexpr int kMaxValueBytes = 256;
constexpr int kOpsPerClient = 2500;
constexpr int kSetupRunsPerRep = 5;  // extra setup-only runs after each repetition
constexpr SimTime kStartAt = msec(300);
constexpr SimTime kDeadline = sec(900);
constexpr std::uint64_t kFirstClientPid = 9000;
// Stated tolerance of the Fig. 3 cross-check: the blocking-path layer sum
// per request against the median latency.
constexpr double kFig3Tolerance = 0.25;

struct Op {
  bool put = false;
  int key = 0;
  int value_bytes = 0;  // padding of a put's value
};

// The seeded inputs: one op sequence per client. The system only ever sees
// these requests, never the seed.
std::vector<std::vector<Op>> make_inputs(std::uint64_t seed, int ops_per_client) {
  std::vector<std::vector<Op>> inputs(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng = Rng(seed).fork(0x6a00 + static_cast<std::uint64_t>(c));
    for (int i = 0; i < ops_per_client; ++i) {
      Op op;
      op.put = !rng.chance(kGetRatio);
      op.key = static_cast<int>(rng.below(kKeys));
      op.value_bytes = static_cast<int>(rng.range(kMinValueBytes, kMaxValueBytes));
      inputs[static_cast<std::size_t>(c)].push_back(op);
    }
  }
  return inputs;
}

struct PutRecord {
  std::string value;
  SimTime issued = kTimeZero;
  std::optional<SimTime> acked;
};

struct GetRecord {
  int key = 0;
  SimTime issued = kTimeZero;
  SimTime completed = kTimeZero;
  bool found = false;
  std::string value;
};

// A get may return the value of any put to its key that was issued before
// the get completed, unless another put to that key was acknowledged in full
// between that put's acknowledgement and the get's issue. "Not found" is
// allowed only while no put to the key had been acknowledged.
bool get_allowed(const GetRecord& get, const std::vector<PutRecord>& puts) {
  if (!get.found) {
    for (const auto& p : puts) {
      if (p.acked && *p.acked < get.issued) return false;
    }
    return true;
  }
  for (const auto& p : puts) {
    if (p.value != get.value || p.issued > get.completed) continue;
    bool superseded = false;
    for (const auto& q : puts) {
      if (&q == &p || !p.acked || !q.acked) continue;
      if (q.issued > *p.acked && *q.acked < get.issued) {
        superseded = true;
        break;
      }
    }
    if (!superseded) return true;
  }
  return false;
}

RequestRep run_once(const Options& options, const std::vector<std::vector<Op>>& inputs,
                    Mode mode, Report& report) {
  RequestRep rep;
  const bool traced = mode == Mode::kTraced;
  const auto start = Clock::now();
  auto app_totals = std::make_shared<AppTotals>();

  harness::ScenarioConfig config;
  config.seed = options.seed;
  // Host 0 holds the lowest-id daemon, the GCS sequencer, and no client:
  // every client then reaches the sequencer over the network alike.
  config.clients = kClients + 1;
  config.replicas = kReplicas;
  config.max_replicas = kReplicas;
  config.style = replication::ReplicationStyle::kActive;
  config.tracing = traced;
  config.make_servant = [app_totals](int) {
    return std::make_unique<TimedServant>(std::make_unique<app::KvStoreServant>(),
                                          app_totals);
  };
  harness::Scenario scenario(config);
  sim::Kernel& kernel = scenario.kernel();
  net::Network& network = scenario.network();

  // Hand-assembled clients, one per client host, as examples/kv_cluster.cpp
  // builds them.
  struct Client {
    std::unique_ptr<sim::Process> process;
    std::unique_ptr<orb::ClientOrb> orb;
    replication::ClientCoordinator* coordinator = nullptr;
    std::size_t next = 0;
  };
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto& cl = clients[static_cast<std::size_t>(c)];
    const NodeId host{static_cast<std::uint64_t>(c + 1)};
    cl.process = std::make_unique<sim::Process>(
        kernel, ProcessId{kFirstClientPid + static_cast<std::uint64_t>(c)}, host,
        cat("bench-client", std::to_string(c), "@", network.host_name(host)));
    cl.orb = std::make_unique<orb::ClientOrb>(network, *cl.process);
    auto coordinator = std::make_unique<replication::ClientCoordinator>(
        network, scenario.daemon_on(host), *cl.process);
    cl.coordinator = coordinator.get();
    cl.orb->use_transport(std::move(coordinator));
  }
  kernel.run_until(kStartAt);  // boot daemons, form the group
  rep.setup_s = seconds_since(start);
  if (mode == Mode::kSetupOnly) return rep;

  if (traced) {
    for (int r = 0; r < kReplicas; ++r) {
      rep.watch_checkpoints(scenario.replicator(r),
                            [&scenario, r] { return scenario.app(r).state_digest(); });
    }
  }

  std::vector<std::vector<PutRecord>> puts(kKeys);
  std::vector<GetRecord> gets;
  int remaining = kClients;
  const orb::ObjectRef ref = scenario.object_ref();
  std::function<void(int)> issue = [&](int c) {
    auto& cl = clients[static_cast<std::size_t>(c)];
    const auto& ops = inputs[static_cast<std::size_t>(c)];
    if (cl.next == ops.size()) {
      if (--remaining == 0) kernel.stop();
      return;
    }
    const std::size_t seq = cl.next++;
    const Op op = ops[seq];
    const std::string key = cat("k", std::to_string(op.key));
    const SimTime issued = kernel.now();
    ++rep.issued;
    // Closed loop, zero think time: the next op goes out on a fresh event.
    auto done = [&, c, issued](bool ok) {
      if (ok) {
        ++rep.completed;
        rep.latencies_us.push_back(to_usec(kernel.now() - issued));
      }
      kernel.post(kTimeZero, [&issue, c] { issue(c); });
    };
    const auto t0 = Clock::now();
    if (op.put) {
      auto& log = puts[static_cast<std::size_t>(op.key)];
      const std::size_t slot = log.size();
      log.push_back({cat("c", std::to_string(c), "-", std::to_string(seq), ":",
                         std::string(static_cast<std::size_t>(op.value_bytes), 'v')),
                     issued, {}});
      cl.orb->invoke(ref, "put", app::KvStoreServant::encode_put(key, log.back().value),
                     [&log, &kernel, slot, done](orb::ReplyStatus status, Bytes) {
                       const bool ok = status == orb::ReplyStatus::kNoException;
                       if (ok) log[slot].acked = kernel.now();
                       done(ok);
                     });
    } else {
      cl.orb->invoke(ref, "get", app::KvStoreServant::encode_key(key),
                     [&gets, &kernel, key_index = op.key, issued, done](
                         orb::ReplyStatus status, Bytes body) {
                       const bool ok = status == orb::ReplyStatus::kNoException;
                       if (ok) {
                         const auto result = app::KvStoreServant::decode_get(body);
                         gets.push_back({key_index, issued, kernel.now(), result.found,
                                         result.value});
                       }
                       done(ok);
                     });
    }
    rep.call_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  };

  for (int c = 0; c < kClients; ++c) {
    kernel.post_at(kStartAt + usec(10) * c, [&issue, c] { issue(c); });
  }
  network.reset_totals();
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
  rep.traffic = network.totals();
  // Ops neither acknowledged nor refused by the deadline count as failed.
  rep.failed = rep.issued - rep.completed;

  scenario.drain();
  const auto digests = scenario.live_state_digests();
  report.check(digests.size() == static_cast<std::size_t>(kReplicas),
               "group_active: " + std::to_string(digests.size()) + " live replicas");
  for (std::uint64_t d : digests) {
    report.check(d == digests.front(), "group_active: replica digests disagree");
  }
  rep.state_digest = digests.empty() ? "none" : hex64(digests.front());
  std::size_t bad_gets = 0;
  for (const auto& g : gets) {
    if (!get_allowed(g, puts[static_cast<std::size_t>(g.key)])) ++bad_gets;
  }
  report.check(bad_gets == 0, "group_active: " + std::to_string(bad_gets) +
                                  " gets returned a value no acknowledged put allows");

  for (int r = 0; r < kReplicas; ++r) rep.add_replicator(scenario.replicator(r));
  for (const auto& cl : clients) rep.retries += cl.coordinator->retransmissions();
  rep.app = *app_totals;
  if (traced) rep.add_trace(profiler, kernel.tracer());
  rep.seal(start);
  return rep;
}

}  // namespace

void run_group_active(const Options& options, Report& report) {
  report.unmeasured_layers = {"shard", "parallel", "chaos", "health"};
  const auto inputs = make_inputs(options.seed, kOpsPerClient);

  // A traced run spends half its budget on untraced repetitions: the
  // wall-clock baseline its overhead is reported against.
  std::vector<RequestRep> reps;
  std::vector<double> setups;
  const double budget = options.trace ? options.seconds * 0.5 : options.seconds;
  repeat_for(budget, [&](double probe) {
    reps.push_back(run_once(options, inputs, Mode::kUntraced, report));
    reps.back().probe_s = probe;
    setups.push_back(normalised_s(reps.back().setup_s, probe));
    for (int i = 0; i < kSetupRunsPerRep; ++i) {
      setups.push_back(normalised_s(run_once(options, inputs, Mode::kSetupOnly, report).setup_s, probe));
    }
  });
  std::optional<RequestRep> traced;
  if (options.trace) traced = run_once(options, inputs, Mode::kTraced, report);
  report_requests("group_active", reps, traced ? &*traced : nullptr, setups, report);
  if (!traced) return;

  // Fig. 3 cross-check: the blocking-path layers must account for the
  // median request latency within the stated tolerance.
  const auto& m = report.metrics;
  const double gcs = m.at("gcs.sim_self_us_per_request");
  const double orb = m.at("orb.sim_self_us_per_request");
  const double rep = m.at("rep.sim_self_us_per_request");
  const double app = m.at("app.sim_us_per_request");
  const double p50_ms = percentile(reps.front().latencies_us, 50) / 1000.0;
  const double sum_ms = (gcs + orb + rep + app) / 1000.0;
  const double off = std::abs(sum_ms - p50_ms) / p50_ms;
  char line[256];
  std::snprintf(line, sizeof(line),
                "fig3 cross-check: gcs %.1f + orb %.1f + rep %.1f + app %.1f us = %.3f ms "
                "vs p50 %.3f ms (off by %.1f%%, tolerance %.0f%%)",
                gcs, orb, rep, app, sum_ms, p50_ms, off * 100.0, kFig3Tolerance * 100.0);
  report.note(line);
  report.check(off <= kFig3Tolerance, "group_active: fig3 cross-check out of tolerance");
}

}  // namespace perfbench
