// Simulated-time types.
//
// The simulation clock is a 64-bit count of nanoseconds since experiment
// start. The paper reports all latencies in microseconds; `to_usec` converts
// for reporting.
#pragma once

#include <chrono>
#include <cstdint>

namespace vdep {

// Durations and absolute simulated times share one representation; an
// absolute time is a duration since the start of the run (time zero).
using SimTime = std::chrono::nanoseconds;

constexpr SimTime kTimeZero{0};

[[nodiscard]] constexpr SimTime nsec(std::int64_t n) { return SimTime{n}; }
[[nodiscard]] constexpr SimTime usec(std::int64_t n) { return SimTime{n * 1000}; }
[[nodiscard]] constexpr SimTime msec(std::int64_t n) { return SimTime{n * 1'000'000}; }
[[nodiscard]] constexpr SimTime sec(std::int64_t n) { return SimTime{n * 1'000'000'000}; }

// Fractional constructors for calibration constants such as 38.5 us.
[[nodiscard]] constexpr SimTime usec_f(double n) {
  return SimTime{static_cast<std::int64_t>(n * 1000.0)};
}
[[nodiscard]] constexpr SimTime sec_f(double n) {
  return SimTime{static_cast<std::int64_t>(n * 1'000'000'000.0)};
}

[[nodiscard]] constexpr double to_usec(SimTime t) {
  return static_cast<double>(t.count()) / 1000.0;
}
[[nodiscard]] constexpr double to_msec(SimTime t) {
  return static_cast<double>(t.count()) / 1'000'000.0;
}
[[nodiscard]] constexpr double to_sec(SimTime t) {
  return static_cast<double>(t.count()) / 1'000'000'000.0;
}

}  // namespace vdep
