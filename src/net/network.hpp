// Simulated switched LAN connecting the testbed hosts.
//
// Models, per ordered host pair: serialization at link bandwidth (a queue),
// propagation delay, Gaussian jitter, probabilistic loss, and partitions.
// Also owns the per-host CPU models and the bandwidth accounting that
// produces the resource axis of the paper's design space (Fig. 7(b)).
//
// Two kinds of traffic cross a link. Packets carry a payload and are
// delivered by a kernel event at their arrival time. Beacons (the daemons'
// heartbeats) carry nothing: the link model runs the same way, but the
// arrival time is only recorded on the directed link, and the receiver reads
// it when it next looks (take_beacons). A heartbeat mesh of N daemons thus
// costs no kernel events at all instead of N*(N-1) per heartbeat interval.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/kernel.hpp"
#include "util/bytes.hpp"
#include "util/calibration.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"
#include "util/rng.hpp"

namespace vdep::net {

// Component demultiplexer on a host.
enum class Port : std::uint16_t {
  kTcp = 1,         // TCP-like channels (baseline, non-replicated path)
  kGcsDaemon = 2,   // group-communication daemon
};

struct Packet {
  NodeId src;
  NodeId dst;
  Port port = Port::kTcp;
  // Frozen frame, shared (not copied) with the sender's retransmit state and
  // with any other in-flight copies of a fan-out.
  Payload payload;
  // Total bytes on the wire including framing; used for bandwidth accounting
  // and serialization delay. Filled by Network::send if left 0.
  std::size_t wire_bytes = 0;
  // Reliable packets model TCP: never silently dropped, but delayed by a
  // retransmission timeout when the link would have lost them.
  bool reliable = false;
  // Control traffic (link acks, stability notices) is excluded
  // from the bandwidth accounting, mirroring how Spread piggybacks these on
  // its token rather than sending separate application-visible traffic.
  bool counted = true;
};

using PacketHandler = std::function<void(Packet&&)>;

// Bytes a beacon occupies in its link's serialization queue: a daemon
// heartbeat frame, i.e. the 13-byte link header (type, sequence, length) and
// an 8-byte sender id.
inline constexpr std::size_t kBeaconWireBytes = 21;

struct LinkParams {
  SimTime propagation = calib::kLinkPropagation;
  SimTime jitter_stddev = calib::kLinkJitterStddev;
  double bandwidth_bytes_per_sec = calib::kLinkBandwidthBytesPerSec;
  double loss_probability = 0.0;
};

// Byte counters for the resource axis. Only inter-host traffic counts;
// loopback (process to its local daemon) is free, as on the real testbed.
struct TrafficTotals {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped_packets = 0;
};

class Network {
 public:
  Network(sim::Kernel& kernel, LinkParams defaults = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -------------------------------------------------------------
  NodeId add_host(const std::string& name);
  [[nodiscard]] const std::string& host_name(NodeId id) const;
  [[nodiscard]] sim::Cpu& cpu(NodeId id);

  // --- component binding ------------------------------------------------------
  void bind(NodeId host, Port port, PacketHandler handler);

  // --- transmission -----------------------------------------------------------
  // Sends a packet; applies the link model. Loopback (src == dst) delivers
  // after a fixed small in-memory cost and is not counted as traffic.
  void send(Packet packet);

  // Sends a payload-free beacon from `src` to `dst` (src != dst). It takes
  // the same link model as an uncounted send() of kBeaconWireBytes — the
  // same drop/partition check, serialization slot and jitter draw, with the
  // same RNG draws in the same order — but schedules no event: its arrival
  // time is recorded on the directed link for take_beacons().
  void beacon(NodeId src, NodeId dst);

  // Removes the beacons on link src->dst that arrived strictly before
  // `before`, calling fn(arrival) for each in arrival order (fn must not send
  // beacons). A beacon that arrives exactly at `before` is not yet visible:
  // an event reading at that instant was scheduled before a delivery event
  // would have been.
  template <typename Fn>
  void take_beacons(NodeId src, NodeId dst, SimTime before, Fn&& fn) {
    auto& links = host_rec(src).links;
    if (dst.value() >= links.size()) return;
    auto& arrivals = links[dst.value()].arrivals;
    auto it = arrivals.begin();
    for (; it != arrivals.end() && *it < before; ++it) fn(*it);
    arrivals.erase(arrivals.begin(), it);
  }

  // --- fault control ----------------------------------------------------------
  // Taking a host down also discards the beacons still in flight to it:
  // like a packet, a beacon counts only if its receiver is up when it lands.
  void set_host_up(NodeId id, bool up);
  [[nodiscard]] bool host_up(NodeId id) const;
  void set_link_params(NodeId from, NodeId to, LinkParams params);
  [[nodiscard]] const LinkParams& link_params(NodeId from, NodeId to) const;
  // Cuts connectivity between the two sides (both directions).
  void partition(const std::set<NodeId>& side_a, const std::set<NodeId>& side_b);
  void heal_partitions();
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;

  // --- accounting ---------------------------------------------------------------
  [[nodiscard]] const TrafficTotals& totals() const { return totals_; }
  [[nodiscard]] const TrafficTotals& host_sent(NodeId id) const;
  // Resets counters (harness calls this after warm-up).
  void reset_totals();

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }

 private:
  // Everything the network knows about one directed link.
  struct Link {
    LinkParams params;
    SimTime next_free = kTimeZero;  // serialization queue head
    bool cut = false;               // partitioned
    std::vector<SimTime> arrivals;  // beacons not yet taken, sorted
  };

  struct HostRec {
    std::string name;
    sim::Cpu cpu;
    bool up = true;
    std::map<Port, PacketHandler> handlers;
    TrafficTotals sent;
    // Outgoing links indexed by destination host, grown on first use to the
    // highest destination this host has reached; not preallocated N x N.
    std::vector<Link> links;
  };

  HostRec& host_rec(NodeId id);
  [[nodiscard]] const HostRec& host_rec(NodeId id) const;
  Link& link(NodeId from, NodeId to);
  [[nodiscard]] const Link* find_link(NodeId from, NodeId to) const;
  // The link model shared by send() and beacon(): drop/partition check,
  // serialization queue and jitter. Returns the arrival time, or nothing when
  // the transmission is dropped (counted in dropped_packets).
  std::optional<SimTime> transit(NodeId src, NodeId dst, std::size_t wire_bytes,
                                 bool reliable);
  void deliver(Packet&& packet);

  sim::Kernel& kernel_;
  LinkParams defaults_;
  Rng rng_;
  std::vector<HostRec> hosts_;
  TrafficTotals totals_;
};

}  // namespace vdep::net
