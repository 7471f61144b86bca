#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

using vdep::SimTime;
using SpanRecord = vdep::obs::Tracer::SpanRecord;

// --- layers -------------------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGcs: return "gcs";
    case Layer::kOrb: return "orb";
    case Layer::kRep: return "rep";
    case Layer::kCkpt: return "ckpt";
    case Layer::kShard: return "shard";
    case Layer::kOther: return "other";
    case Layer::kUntagged: return "untagged";
  }
  return "?";
}

Layer layer_of(const SpanRecord& span) {
  if (span.category == "gcs") return Layer::kGcs;
  if (span.category == "orb") return Layer::kOrb;
  if (span.category == "shard") return Layer::kShard;
  if (span.category == "replication") {
    if (span.name == "rep.checkpoint" || span.name == "rep.install" ||
        span.name == "rep.anchor_request" || span.name == "rep.state_request") {
      return Layer::kCkpt;
    }
    return Layer::kRep;
  }
  return Layer::kOther;
}

void StepProfiler::run_until(SimTime deadline) {
  const auto& tracer = kernel_.tracer();
  while (true) {
    const std::size_t before = tracer.spans().size();
    const auto t0 = Clock::now();
    const std::size_t ran = kernel_.run_steps(1);
    const auto t1 = Clock::now();
    if (ran == 0) break;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    const std::size_t after = tracer.spans().size();
    const Layer layer = after > before ? layer_of(tracer.spans()[after - 1]) : Layer::kUntagged;
    ns_[static_cast<std::size_t>(layer)] += ns;
    total_ns_ += ns;
    if (kernel_.stopped() || kernel_.now() >= deadline) break;
  }
}

double StepProfiler::wall_share(Layer layer) const {
  return ratio(static_cast<double>(ns_[static_cast<std::size_t>(layer)]),
               static_cast<double>(total_ns_));
}

// --- blocking path ------------------------------------------------------------------

namespace {

std::string_view host_of(std::string_view proc) {
  const auto at = proc.rfind('@');
  return at == std::string_view::npos ? proc : proc.substr(at + 1);
}

// The layer that did the work ending at this span boundary.
Layer closing_layer(const SpanRecord& span, bool is_start) {
  if (is_start && (span.name == "coord.send" || span.name == "orb.dispatch")) {
    return Layer::kOrb;  // an ORB traversal precedes both
  }
  const Layer layer = layer_of(span);
  return layer == Layer::kCkpt ? Layer::kRep : layer;
}

}  // namespace

PathTimes blocking_path_times(const vdep::obs::Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_trace;
  for (std::size_t i = 0; i < spans.size(); ++i) by_trace[spans[i].trace].push_back(i);

  PathTimes out;
  for (const auto& [trace, members] : by_trace) {
    const SpanRecord& root = spans[members.front()];
    if (root.name != "client.request" || root.parent != 0) continue;
    if (root.open) {
      ++out.incomplete;
      continue;
    }
    const std::string_view client_host = host_of(root.proc);

    // The reply's delivery at the client's daemon is parented under the
    // rep.reply span of the replica that sent it; the first one wins.
    const SpanRecord* reply_delivery = nullptr;
    for (std::size_t i : members) {
      const SpanRecord& s = spans[i];
      if (s.name == "gcs.deliver" && host_of(s.proc) == client_host &&
          (reply_delivery == nullptr || s.start < reply_delivery->start)) {
        reply_delivery = &s;
      }
    }
    const SpanRecord* winner = nullptr;
    if (reply_delivery != nullptr && reply_delivery->parent != 0) {
      const SpanRecord& parent = spans[reply_delivery->parent - 1];
      if (parent.name == "rep.reply") winner = &parent;
    }
    if (winner == nullptr) {
      ++out.incomplete;
      continue;
    }
    const std::string_view replica_host = host_of(winner->proc);

    struct Boundary {
      SimTime at;
      const SpanRecord* span;
      bool is_start;
    };
    std::vector<Boundary> path;
    bool ordered = false;
    for (std::size_t i : members) {
      const SpanRecord& s = spans[i];
      if (&s == &root) continue;
      const std::string_view host = host_of(s.proc);
      const bool on_path =
          s.name == "gcs.order" || host == client_host || host == replica_host;
      if (!on_path) continue;
      ordered = ordered || s.name == "gcs.order";
      path.push_back({s.start, &s, true});
      if (!s.open) path.push_back({s.end, &s, false});
    }
    if (!ordered) {
      ++out.incomplete;
      continue;
    }
    path.push_back({root.end, &root, false});
    std::stable_sort(path.begin(), path.end(),
                     [](const Boundary& a, const Boundary& b) { return a.at < b.at; });

    SimTime prev = root.start;
    for (const Boundary& b : path) {
      if (b.at > root.end) break;
      const double dt = vdep::to_usec(b.at - prev);
      prev = b.at;
      switch (closing_layer(*b.span, b.is_start)) {
        case Layer::kGcs: out.gcs_us += dt; break;
        case Layer::kOrb: out.orb_us += dt; break;
        case Layer::kRep: out.rep_us += dt; break;
        default: out.other_us += dt; break;
      }
    }
    ++out.requests;
  }
  return out;
}

std::uint64_t count_spans(const vdep::obs::Tracer& tracer, const std::string& name) {
  std::uint64_t n = 0;
  for (const auto& s : tracer.spans()) {
    if (s.name == name) ++n;
  }
  return n;
}

// --- timed servant ------------------------------------------------------------------

vdep::orb::Servant::Result TimedServant::invoke(const std::string& operation,
                                                const vdep::Bytes& args) {
  const auto t0 = Clock::now();
  Result result = inner_->invoke(operation, args);
  totals_->wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  totals_->sim_us += vdep::to_usec(result.cpu_time);
  ++totals_->invokes;
  return result;
}

}  // namespace perfbench
