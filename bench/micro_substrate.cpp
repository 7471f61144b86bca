// Micro-benchmarks of the substrate components (google-benchmark): event
// queue, RNG, byte/CDR/GIOP codecs, reply cache and the ordered-delivery
// buffer. These quantify the *real* (not simulated) cost of the
// infrastructure the experiments run on.
#include <benchmark/benchmark.h>

#include "gcs/message.hpp"
#include "gcs/ordering.hpp"
#include "orb/giop.hpp"
#include "replication/reply_cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

using namespace vdep;

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(1);
  SimTime t = kTimeZero;
  int counter = 0;
  for (auto _ : state) {
    // Keep a working set of ~1000 events.
    for (int i = 0; i < 8; ++i) {
      queue.schedule(t + nsec(static_cast<std::int64_t>(rng.below(1'000'000))),
                     [&counter] { ++counter; });
    }
    while (queue.size() > 1000) {
      auto [at, fn] = queue.pop();
      t = at;
      fn();
    }
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_KernelRunSteps(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel(7);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      kernel.post(usec(i), [&fired, &kernel, i] {
        ++fired;
        if (i % 2 == 0) kernel.post(usec(1), [&fired] { ++fired; });
      });
    }
    kernel.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelRunSteps);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.next();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNext);

void BM_GiopRequestRoundTrip(benchmark::State& state) {
  orb::RequestMessage req;
  req.request_id = 77;
  req.object_key = ObjectId{1};
  req.operation = "process";
  req.body = filler_bytes(static_cast<std::size_t>(state.range(0)));
  orb::FtRequestContext ctx;
  ctx.client = ProcessId{5001};
  ctx.retention_id = 77;
  ctx.client_daemon = NodeId{0};
  req.service_contexts.push_back(ctx.to_context());
  for (auto _ : state) {
    Bytes wire = req.encode();
    auto decoded = orb::decode_giop(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_GiopRequestRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ReplyCachePutGet(benchmark::State& state) {
  replication::ReplyCache cache(1024);
  Payload reply = filler_bytes(128);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    RequestId id{ProcessId{1}, ++seq};
    cache.put(id, reply);
    benchmark::DoNotOptimize(cache.get(id));
  }
}
BENCHMARK(BM_ReplyCachePutGet);

void BM_OrderedBufferOfferDeliver(benchmark::State& state) {
  // All message construction — including the 64-byte filler payload, which
  // used to charge allocation noise to the buffer under test — happens
  // outside the timed region; the loop measures offer + take_deliverable
  // only.
  gcs::View view;
  view.group = GroupId{1};
  view.view_id = 1;
  view.members.push_back(gcs::Member{ProcessId{1}, NodeId{0}});
  gcs::Ordered v;
  v.group = GroupId{1};
  v.epoch = 1;
  v.seq = 0;
  v.kind = gcs::Ordered::Kind::kView;
  v.payload = view.encode();
  std::vector<gcs::Ordered> round;
  const Payload body = Payload::copy_of(filler_bytes(64));
  for (std::uint64_t s = 1; s <= 256; ++s) {
    gcs::Ordered msg;
    msg.group = GroupId{1};
    msg.epoch = 1;
    msg.seq = s;
    msg.origin = gcs::OriginId{ProcessId{1}, s};
    msg.payload = body;
    round.push_back(msg);
  }

  for (auto _ : state) {
    state.PauseTiming();
    gcs::GroupReceiveBuffer buffer{GroupId{1}};
    state.ResumeTiming();

    (void)buffer.offer(v, NodeId{0});
    for (const gcs::Ordered& msg : round) (void)buffer.offer(msg, NodeId{0});
    auto out = buffer.take_deliverable();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OrderedBufferOfferDeliver);

// --- fan-out message path: encode-once vs per-destination ---------------------
//
// Models the daemon broadcast hot path end to end: encode the inner message,
// splice it into a link frame per destination, then decode on each receiver.
// The legacy shape (what the tree did before the shared-Payload refactor)
// re-encodes per destination and deep-copies payload bytes twice on every
// receive; the current shape encodes once, splices once per destination, and
// aliases on receive. The `payload_bytes_copied` counter is the acceptance
// metric: bytes memcpy'd per fan-out, excluding fixed headers.

constexpr int kFanoutDests = 4;

gcs::Ordered make_fanout_msg(std::size_t payload_size) {
  gcs::Ordered msg;
  msg.group = GroupId{1};
  msg.epoch = 3;
  msg.seq = 17;
  msg.origin = gcs::OriginId{ProcessId{1}, 17};
  msg.origin_daemon = NodeId{1};
  msg.payload = Payload::copy_of(filler_bytes(payload_size));
  return msg;
}

// ReliableLink's outer frame: type byte, sequence, length-prefixed inner.
Bytes splice_link_frame(std::span<const std::uint8_t> inner) {
  ByteWriter w(inner.size() + 16);
  w.u8(1);
  w.u64(42);
  w.bytes(inner);
  return std::move(w).take();
}

void BM_FanoutEncodePerDest(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const gcs::Ordered msg = make_fanout_msg(payload_size);
  std::size_t copied = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    for (int d = 0; d < kFanoutDests; ++d) {
      Payload frame = gcs::encode_inner(msg);       // re-encoded per destination
      copied += payload_size;
      Bytes link = splice_link_frame(frame);        // splice per destination
      copied += payload_size;
      ByteReader r(link);                           // receiver: no owner -> copies
      (void)r.u8();
      (void)r.u64();
      Payload inner = read_payload(r);              // deep copy out of the frame
      copied += payload_size;
      auto decoded = gcs::decode_inner(inner.view());  // deep copy of the payload
      copied += payload_size;
      benchmark::DoNotOptimize(decoded);
    }
    ++rounds;
  }
  state.counters["payload_bytes_copied"] =
      benchmark::Counter(static_cast<double>(copied) / static_cast<double>(rounds));
}
BENCHMARK(BM_FanoutEncodePerDest)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FanoutEncodeOnce(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const gcs::Ordered msg = make_fanout_msg(payload_size);
  std::size_t copied = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    Payload frame = gcs::encode_inner(msg);         // encoded once, shared
    copied += payload_size;
    for (int d = 0; d < kFanoutDests; ++d) {
      Payload link = splice_link_frame(frame);      // one splice per destination
      copied += payload_size;
      ByteReader r(link.owner(), link);             // receiver: owner-aware
      (void)r.u8();
      (void)r.u64();
      Payload inner = read_payload(r);              // aliases the link frame
      auto decoded = gcs::decode_inner(inner);      // payload aliases too
      benchmark::DoNotOptimize(decoded);
    }
    ++rounds;
  }
  state.counters["payload_bytes_copied"] =
      benchmark::Counter(static_cast<double>(copied) / static_cast<double>(rounds));
}
BENCHMARK(BM_FanoutEncodeOnce)->Arg(256)->Arg(4096)->Arg(65536);

void BM_Fnv1a(benchmark::State& state) {
  Bytes data = filler_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(fnv1a(data));
}
BENCHMARK(BM_Fnv1a)->Arg(64)->Arg(4096);

}  // namespace

// main provided by bench_main.cpp (build-type stamping + debug refusal).
