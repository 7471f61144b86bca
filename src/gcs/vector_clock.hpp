// Vector clocks over process ids.
//
// Used to version the replicated system-state object (src/monitor) and to
// verify causal-delivery properties in the group-communication tests. The
// sequencer-based total order already subsumes causal delivery within a
// group; the clock lets tests check that claim rather than assume it.
#pragma once

#include <cstdint>
#include <map>

#include "util/ids.hpp"

namespace vdep::gcs {

class VectorClock {
 public:
  // Increments this process's component and returns the new value.
  std::uint64_t tick(ProcessId p);

  [[nodiscard]] std::uint64_t get(ProcessId p) const;
  void set(ProcessId p, std::uint64_t v);

  // Component-wise maximum (applied on message receipt).
  void merge(const VectorClock& other);

  // Partial order.
  [[nodiscard]] bool happens_before(const VectorClock& other) const;  // this < other
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const;

  [[nodiscard]] const std::map<ProcessId, std::uint64_t>& components() const {
    return clock_;
  }

  friend bool operator==(const VectorClock&, const VectorClock&) = default;

 private:
  // <= comparison used by both relations.
  [[nodiscard]] bool leq(const VectorClock& other) const;

  std::map<ProcessId, std::uint64_t> clock_;
};

}  // namespace vdep::gcs
