// The causal identity a request carries across process and host boundaries:
// which trace (one per client request / view change / checkpoint round) and
// which span within it caused the message being processed.
//
// A TraceContext is always wire-encoded — zeros when tracing is disabled —
// so enabling tracing never changes message sizes, and therefore never
// changes simulated timing. Determinism tests rely on that.
#pragma once

#include <cstdint>

namespace vdep::obs {

struct TraceContext {
  std::uint64_t trace = 0;  // 0 = "no trace" (tracing off, or orphan message)
  std::uint64_t span = 0;   // causing span within the trace

  [[nodiscard]] bool valid() const { return trace != 0; }

  template <typename IO>
  friend void wire_fields(IO& io, TraceContext& m) { io(m.trace, m.span); }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

}  // namespace vdep::obs
