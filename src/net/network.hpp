// Simulated switched LAN connecting the testbed hosts.
//
// Models, per ordered host pair: serialization at link bandwidth (a queue),
// propagation delay, Gaussian jitter, probabilistic loss, and partitions.
// Also owns the per-host CPU models and the bandwidth accounting that
// produces the resource axis of the paper's design space (Fig. 7(b)).
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
  // Control traffic (heartbeats, link acks, stability notices) is excluded
  // from the bandwidth accounting, mirroring how Spread piggybacks these on
  // its token rather than sending separate application-visible traffic.
  bool counted = true;
};

using PacketHandler = std::function<void(Packet&&)>;

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

  // --- fault control ----------------------------------------------------------
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
  struct HostRec {
    std::string name;
    sim::Cpu cpu;
    bool up = true;
    std::map<Port, PacketHandler> handlers;
    TrafficTotals sent;
  };

  struct LinkState {
    SimTime next_free = kTimeZero;  // serialization queue head
  };

  HostRec& host_rec(NodeId id);
  [[nodiscard]] const HostRec& host_rec(NodeId id) const;
  void deliver(Packet&& packet);

  sim::Kernel& kernel_;
  LinkParams defaults_;
  Rng rng_;
  std::vector<HostRec> hosts_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> link_overrides_;
  std::map<std::pair<NodeId, NodeId>, LinkState> link_states_;
  std::set<std::pair<NodeId, NodeId>> cut_pairs_;
  TrafficTotals totals_;
};

}  // namespace vdep::net
