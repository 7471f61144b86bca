#include "net/network.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vdep::net {

namespace {
// In-memory handoff cost for loopback delivery (process <-> local daemon).
constexpr SimTime kLoopbackDelay = usec(4);
// Modelled TCP retransmission penalty when a reliable packet hits loss.
constexpr SimTime kTcpRetransmitPenalty = msec(2);
}  // namespace

Network::Network(sim::Kernel& kernel, LinkParams defaults)
    : kernel_(kernel), defaults_(defaults), rng_(kernel.fork_rng(0x6e657477)) {}

NodeId Network::add_host(const std::string& name) {
  const NodeId id{hosts_.size()};
  hosts_.push_back(HostRec{name, sim::Cpu(kernel_, id), true, {}, {}, {}});
  return id;
}

Network::HostRec& Network::host_rec(NodeId id) {
  VDEP_ASSERT(id.value() < hosts_.size());
  return hosts_[id.value()];
}

const Network::HostRec& Network::host_rec(NodeId id) const {
  VDEP_ASSERT(id.value() < hosts_.size());
  return hosts_[id.value()];
}

const std::string& Network::host_name(NodeId id) const { return host_rec(id).name; }

sim::Cpu& Network::cpu(NodeId id) { return host_rec(id).cpu; }

void Network::bind(NodeId host, Port port, PacketHandler handler) {
  auto& rec = host_rec(host);
  VDEP_ASSERT_MSG(!rec.handlers.contains(port), "port already bound");
  rec.handlers[port] = std::move(handler);
}

Network::Link& Network::link(NodeId from, NodeId to) {
  auto& links = host_rec(from).links;
  VDEP_ASSERT(to.value() < hosts_.size());
  if (to.value() >= links.size()) {
    links.resize(to.value() + 1, Link{defaults_, kTimeZero, false, {}});
  }
  return links[to.value()];
}

const Network::Link* Network::find_link(NodeId from, NodeId to) const {
  const auto& links = host_rec(from).links;
  return to.value() < links.size() ? &links[to.value()] : nullptr;
}

void Network::set_host_up(NodeId id, bool up) {
  host_rec(id).up = up;
  if (up) return;
  // Beacons landing from now on would find the host down.
  const SimTime now = kernel_.now();
  for (auto& sender : hosts_) {
    if (id.value() >= sender.links.size()) continue;
    auto& arrivals = sender.links[id.value()].arrivals;
    arrivals.erase(std::lower_bound(arrivals.begin(), arrivals.end(), now),
                   arrivals.end());
  }
}

bool Network::host_up(NodeId id) const { return host_rec(id).up; }

void Network::set_link_params(NodeId from, NodeId to, LinkParams params) {
  link(from, to).params = params;
}

const LinkParams& Network::link_params(NodeId from, NodeId to) const {
  const Link* l = find_link(from, to);
  return l != nullptr ? l->params : defaults_;
}

void Network::partition(const std::set<NodeId>& side_a, const std::set<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) {
      link(a, b).cut = true;
      link(b, a).cut = true;
    }
  }
}

void Network::heal_partitions() {
  for (auto& h : hosts_) {
    for (auto& l : h.links) l.cut = false;
  }
}

bool Network::partitioned(NodeId a, NodeId b) const {
  const Link* l = find_link(a, b);
  return l != nullptr && l->cut;
}

const TrafficTotals& Network::host_sent(NodeId id) const { return host_rec(id).sent; }

void Network::reset_totals() {
  totals_ = {};
  for (auto& h : hosts_) h.sent = {};
}

std::optional<SimTime> Network::transit(NodeId src, NodeId dst,
                                        std::size_t wire_bytes, bool reliable) {
  Link& l = link(src, dst);

  // Loss / partition handling.
  SimTime penalty = kTimeZero;
  const bool cut = l.cut || !host_up(dst);
  if (cut || rng_.chance(l.params.loss_probability)) {
    if (!reliable || cut) {
      ++totals_.dropped_packets;
      return std::nullopt;
    }
    // Reliable transport retransmits; model the recovery as added delay.
    penalty = kTcpRetransmitPenalty;
  }

  // Serialization queue at the sender's link.
  const SimTime serialize =
      sec_f(static_cast<double>(wire_bytes) / l.params.bandwidth_bytes_per_sec);
  const SimTime start = std::max(kernel_.now(), l.next_free);
  l.next_free = start + serialize;

  const double jitter_ns = std::max(
      0.0, rng_.normal(0.0, static_cast<double>(l.params.jitter_stddev.count())));
  return l.next_free + l.params.propagation +
         SimTime{static_cast<std::int64_t>(jitter_ns)} + penalty;
}

void Network::send(Packet packet) {
  if (packet.wire_bytes == 0) {
    packet.wire_bytes = packet.payload.size() + calib::kTcpIpHeaderBytes;
  }

  auto& src = host_rec(packet.src);
  if (!src.up) return;  // a dead host sends nothing

  if (packet.src == packet.dst) {
    // Loopback: free of charge, near-instant, never lost.
    kernel_.post(kLoopbackDelay,
                 [this, p = std::move(packet)]() mutable { deliver(std::move(p)); });
    return;
  }

  const auto arrival =
      transit(packet.src, packet.dst, packet.wire_bytes, packet.reliable);
  if (!arrival) return;

  if (packet.counted) {
    ++totals_.packets;
    totals_.bytes += packet.wire_bytes;
    ++src.sent.packets;
    src.sent.bytes += packet.wire_bytes;
  }

  kernel_.post_at(*arrival,
                  [this, p = std::move(packet)]() mutable { deliver(std::move(p)); });
}

void Network::beacon(NodeId src, NodeId dst) {
  VDEP_ASSERT(src != dst);
  if (!host_rec(src).up) return;
  const auto arrival = transit(src, dst, kBeaconWireBytes, /*reliable=*/false);
  if (!arrival) return;
  // Jitter can let a beacon overtake the one before it; keep the link sorted.
  auto& arrivals = link(src, dst).arrivals;
  arrivals.insert(std::upper_bound(arrivals.begin(), arrivals.end(), *arrival), *arrival);
}

void Network::deliver(Packet&& packet) {
  auto& dst = host_rec(packet.dst);
  if (!dst.up) return;
  auto it = dst.handlers.find(packet.port);
  if (it == dst.handlers.end()) return;  // unbound port: dropped
  it->second(std::move(packet));
}

}  // namespace vdep::net
