// Hand-written byte streams for tests: runs `write` over the writer's sizer,
// then over the writer into a buffer of exactly that size, the way the
// encoders in util/wire.hpp size their blocks.
#pragma once

#include "util/bytes.hpp"

namespace vdep::testing {

template <typename Writer, typename Write>
[[nodiscard]] Bytes written(Write&& write) {
  typename Writer::Sizer sizer;
  write(sizer);
  Bytes out(sizer.size());
  Writer writer(out);
  write(writer);
  return out;
}

}  // namespace vdep::testing
