#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "harness/scenario.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "util/time.hpp"
#include "util/wire.hpp"

namespace vdep {
namespace {

obs::Tracer make_tracer(SimTime* now, std::size_t capacity = obs::Tracer::kDefaultCapacity) {
  return obs::Tracer([now] { return *now; }, capacity);
}

TEST(Tracer, DisabledIsInert) {
  SimTime now = kTimeZero;
  obs::Tracer tracer = make_tracer(&now);
  obs::Span span = tracer.start_span("a", "cat", "proc");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  span.note("k", "v");  // all no-ops
  span.end();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.traces_started(), 0u);
  // Scope on a disabled tracer leaves current() untouched.
  {
    obs::Tracer::Scope scope(tracer, obs::TraceContext{9, 9});
    EXPECT_FALSE(tracer.current().valid());
  }
}

TEST(Tracer, SequentialIdsAndFreshTraces) {
  SimTime now = kTimeZero;
  obs::Tracer tracer = make_tracer(&now);
  tracer.enable();

  obs::Span a = tracer.start_span("a", "c", "p");
  obs::Span b = tracer.start_span("b", "c", "p");
  ASSERT_TRUE(a.active());
  ASSERT_TRUE(b.active());
  // Invalid parent => each starts its own trace; ids are sequential.
  EXPECT_EQ(a.context().trace, 1u);
  EXPECT_EQ(b.context().trace, 2u);
  EXPECT_EQ(a.context().span, 1u);
  EXPECT_EQ(b.context().span, 2u);
  EXPECT_EQ(tracer.traces_started(), 2u);

  obs::Span child = tracer.start_span("child", "c", "p", a.context());
  EXPECT_EQ(child.context().trace, a.context().trace);
  EXPECT_EQ(tracer.spans()[2].parent, a.context().span);
  EXPECT_EQ(tracer.traces_started(), 2u);  // no new trace for the child
}

TEST(Tracer, RaiiEndStampsClock) {
  SimTime now = kTimeZero;
  obs::Tracer tracer = make_tracer(&now);
  tracer.enable();
  {
    obs::Span span = tracer.start_span("scoped", "c", "p");
    now = usec(5);
  }  // destructor ends it
  const auto& rec = tracer.spans()[0];
  EXPECT_FALSE(rec.open);
  EXPECT_EQ(rec.start, kTimeZero);
  EXPECT_EQ(rec.end, usec(5));

  obs::Span span = tracer.start_span("explicit", "c", "p");
  now = usec(9);
  span.end();
  now = usec(30);
  span.end();  // idempotent: second end must not restamp
  EXPECT_EQ(tracer.spans()[1].end, usec(9));
}

TEST(Tracer, ScopeSetsAndRestoresCurrent) {
  SimTime now = kTimeZero;
  obs::Tracer tracer = make_tracer(&now);
  tracer.enable();
  obs::Span root = tracer.start_span("root", "c", "p");
  EXPECT_FALSE(tracer.current().valid());
  {
    obs::Tracer::Scope scope(tracer, root.context());
    EXPECT_EQ(tracer.current(), root.context());
    obs::Span child = tracer.start_child("child", "c", "p");
    EXPECT_EQ(child.context().trace, root.context().trace);
    {
      obs::Tracer::Scope inner(tracer, child.context());
      EXPECT_EQ(tracer.current(), child.context());
    }
    EXPECT_EQ(tracer.current(), root.context());
  }
  EXPECT_FALSE(tracer.current().valid());
}

TEST(Tracer, CapacityDropsAreCounted) {
  SimTime now = kTimeZero;
  obs::Tracer tracer = make_tracer(&now, 3);
  tracer.enable();
  for (int i = 0; i < 5; ++i) {
    obs::Span span = tracer.start_span("s", "c", "p");
    if (i < 3) EXPECT_TRUE(span.active());
    else EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.spans_recorded(), 3u);
  EXPECT_EQ(tracer.spans_dropped(), 2u);
  tracer.clear();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  EXPECT_TRUE(tracer.start_span("s", "c", "p").active());
}

TEST(Tracer, NotesAttachInOrder) {
  SimTime now = kTimeZero;
  obs::Tracer tracer = make_tracer(&now);
  tracer.enable();
  obs::Span span = tracer.start_span("s", "c", "p");
  span.note("first", "1");
  span.note("second", "2");
  span.end();
  const auto& notes = tracer.spans()[0].notes;
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_EQ(notes[0].first, "first");
  EXPECT_EQ(notes[1].second, "2");
}

TEST(TraceContext, WireRoundTripAndZeroWhenInvalid) {
  obs::TraceContext ctx{0x1234, 0x5678};
  const Bytes bytes = wire::encode<Bytes>(ctx);
  EXPECT_EQ(bytes.size(), 16u);  // always 16 bytes on the wire
  EXPECT_EQ(wire::decode<obs::TraceContext>(bytes), ctx);

  const Bytes zero = wire::encode<Bytes>(obs::TraceContext{});
  EXPECT_EQ(zero.size(), 16u);  // disabled tracing: same size, all zeros
  EXPECT_TRUE(std::all_of(zero.begin(), zero.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(TraceExport, DeterministicRenderings) {
  const auto record = [](obs::Tracer& tracer, SimTime* now) {
    tracer.enable();
    obs::Span root = tracer.start_span("client.request", "orb", "client0@cli0");
    root.note("op", "process");
    *now = usec(10);
    obs::Span child = tracer.start_span("rep.execute", "replication",
                                        "replica0@srv0", root.context());
    *now = usec(25);
    child.end();
    *now = usec(40);
    root.end();
  };
  SimTime now1 = kTimeZero;
  obs::Tracer t1 = make_tracer(&now1);
  record(t1, &now1);
  SimTime now2 = kTimeZero;
  obs::Tracer t2 = make_tracer(&now2);
  record(t2, &now2);

  EXPECT_EQ(obs::to_chrome_trace(t1), obs::to_chrome_trace(t2));
  EXPECT_EQ(obs::render_text(t1), obs::render_text(t2));
  // The text tree shows the child indented under its parent.
  const std::string text = obs::render_text(t1);
  EXPECT_NE(text.find("client.request"), std::string::npos);
  EXPECT_NE(text.find("  [1/2] rep.execute"), std::string::npos);
  // Chrome JSON carries the span and the process label.
  const std::string json = obs::to_chrome_trace(t1);
  EXPECT_NE(json.find("\"client.request\""), std::string::npos);
  EXPECT_NE(json.find("client0@cli0"), std::string::npos);
}

// --- integration: the replicated path produces connected trees ----------------

// Runs a seeded warm-passive failover with tracing on and returns the
// scenario's recorded span table rendered both ways.
struct FailoverRecording {
  std::string json;
  std::string text;
  std::uint64_t spans = 0;
  std::uint64_t traces = 0;
  std::uint64_t completed = 0;
};

// gtest ASSERT_* needs a void function; structural checks live here.
void check_span_structure(const obs::Tracer& tracer) {
  // 1. Every parent reference resolves inside the same trace.
  std::map<std::uint64_t, const obs::Tracer::SpanRecord*> by_id;
  for (const auto& span : tracer.spans()) by_id[span.id] = &span;
  for (const auto& span : tracer.spans()) {
    if (span.parent == 0) continue;
    auto it = by_id.find(span.parent);
    ASSERT_NE(it, by_id.end()) << "dangling parent for span " << span.id;
    EXPECT_EQ(it->second->trace, span.trace) << "parent in a different trace";
  }
  // 2. All spans closed after drain — except on the crashed primary
  //    (replica0), whose in-flight protocol spans legitimately freeze open
  //    at the crash point; the flight recorder shows them as interrupted.
  for (const auto& span : tracer.spans()) {
    if (span.proc.rfind("replica0@", 0) == 0) continue;
    EXPECT_FALSE(span.open) << span.name << " (" << span.proc << ") never ended";
  }
  // 3. At least one client request tree reaches a replica execution AND the
  //    group layer: the tree is connected across processes.
  std::set<std::uint64_t> full_traces;
  std::map<std::uint64_t, std::set<std::string>> names_by_trace;
  for (const auto& span : tracer.spans()) {
    names_by_trace[span.trace].insert(std::string(span.name));
  }
  for (const auto& [trace, names] : names_by_trace) {
    if (names.count("client.request") && names.count("coord.send") &&
        names.count("gcs.order") && names.count("gcs.deliver") &&
        names.count("rep.execute") && names.count("orb.dispatch") &&
        names.count("rep.reply")) {
      full_traces.insert(trace);
    }
  }
  EXPECT_GT(full_traces.size(), 100u)
      << "most requests should produce fully-linked trees";
  // 4. The failover shows up: a backup promotion span.
  bool saw_promote = false;
  for (const auto& span : tracer.spans()) {
    if (span.name == "rep.promote") saw_promote = true;
  }
  EXPECT_TRUE(saw_promote) << "backup promotion span missing";
}

FailoverRecording record_failover(std::uint64_t seed) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.tracing = true;
  harness::Scenario scenario(config);
  // Crash the primary early enough that plenty of the workload is still
  // outstanding — the trees must span the failover, not just precede it.
  scenario.fault_plan().crash_process(msec(300), scenario.replica_pid(0));
  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = 150;
  cycle.warmup_requests = 0;
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  const obs::Tracer& tracer = scenario.kernel().tracer();
  FailoverRecording rec;
  rec.json = obs::to_chrome_trace(tracer);
  rec.text = obs::render_text(tracer);
  rec.spans = tracer.spans_recorded();
  rec.traces = tracer.traces_started();
  rec.completed = result.completed;
  check_span_structure(tracer);
  return rec;
}

TEST(TraceIntegration, FailoverProducesConnectedTreesAndIsByteDeterministic) {
  const FailoverRecording run1 = record_failover(42);
  const FailoverRecording run2 = record_failover(42);
  EXPECT_GT(run1.spans, 0u);
  EXPECT_EQ(run1.completed, 300u);  // all requests despite the crash
  // Golden determinism gate: same seed => byte-identical exports.
  EXPECT_EQ(run1.json, run2.json);
  EXPECT_EQ(run1.text, run2.text);
  EXPECT_EQ(run1.spans, run2.spans);
  EXPECT_EQ(run1.traces, run2.traces);
}

TEST(TraceIntegration, TracingDoesNotPerturbSimulatedResults) {
  // Same seed, tracing off vs on: identical simulated outcome (the wire
  // always carries the 16-byte context, zeros when off).
  const auto run = [](bool tracing) {
    harness::ScenarioConfig config;
    config.seed = 7;
    config.clients = 2;
    config.replicas = 3;
    config.max_replicas = 3;
    config.style = replication::ReplicationStyle::kActive;
    config.tracing = tracing;
    harness::Scenario scenario(config);
    harness::Scenario::CycleConfig cycle;
    cycle.requests_per_client = 100;
    cycle.warmup_requests = 0;
    return scenario.run_closed_loop(cycle);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_DOUBLE_EQ(off.avg_latency_us, on.avg_latency_us);
  EXPECT_DOUBLE_EQ(off.p99_latency_us, on.p99_latency_us);
  EXPECT_DOUBLE_EQ(off.bandwidth_mbps, on.bandwidth_mbps);
}

}  // namespace
}  // namespace vdep
