#include "gcs/vector_clock.hpp"

#include <algorithm>

namespace vdep::gcs {

std::uint64_t VectorClock::tick(ProcessId p) { return ++clock_[p]; }

std::uint64_t VectorClock::get(ProcessId p) const {
  auto it = clock_.find(p);
  return it == clock_.end() ? 0 : it->second;
}

void VectorClock::set(ProcessId p, std::uint64_t v) {
  if (v == 0) {
    clock_.erase(p);
  } else {
    clock_[p] = v;
  }
}

void VectorClock::merge(const VectorClock& other) {
  for (const auto& [p, v] : other.clock_) {
    auto& mine = clock_[p];
    mine = std::max(mine, v);
  }
}

bool VectorClock::leq(const VectorClock& other) const {
  return std::all_of(clock_.begin(), clock_.end(), [&other](const auto& kv) {
    return kv.second <= other.get(kv.first);
  });
}

bool VectorClock::happens_before(const VectorClock& other) const {
  return leq(other) && *this != other;
}

bool VectorClock::concurrent_with(const VectorClock& other) const {
  return !leq(other) && !other.leq(*this);
}

}  // namespace vdep::gcs
