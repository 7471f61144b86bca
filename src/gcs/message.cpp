#include "gcs/message.hpp"

#include <array>
#include <utility>

#include "util/wire.hpp"

namespace vdep::gcs {

std::string to_string(ServiceType svc) {
  switch (svc) {
    case ServiceType::kBestEffort: return "best_effort";
    case ServiceType::kReliable: return "reliable";
    case ServiceType::kFifo: return "fifo";
    case ServiceType::kCausal: return "causal";
    case ServiceType::kAgreed: return "agreed";
    case ServiceType::kSafe: return "safe";
  }
  return "?";
}

namespace {

// Per-thread: trials on the parallel campaign fleet each count their own
// encodes without racing (the encode-count test reads it on its own thread).
thread_local std::uint64_t g_encode_inner_count = 0;

// decode_inner's dispatch: entry i decodes InnerMsg alternative i, whose
// tag byte is i + 1.
using InnerDecoder = InnerMsg (*)(wire::Reader&);
template <std::size_t... I>
constexpr std::array<InnerDecoder, sizeof...(I)> inner_decoders(std::index_sequence<I...>) {
  return {[](wire::Reader& r) -> InnerMsg {
    return r.read<std::variant_alternative_t<I, InnerMsg>>();
  }...};
}
constexpr auto kInnerDecoders =
    inner_decoders(std::make_index_sequence<std::variant_size_v<InnerMsg>>{});

InnerMsg decode_inner_from(wire::Reader r) {
  const auto tag = r.read<std::uint8_t>();
  r.check(tag >= 1 && tag <= kInnerDecoders.size(), "bad inner message tag");
  return kInnerDecoders[tag - 1](r);
}

}  // namespace

std::uint64_t encode_inner_count() { return g_encode_inner_count; }

Payload encode_inner(const InnerMsg& msg) {
  ++g_encode_inner_count;
  wire::Writer w;
  w(static_cast<std::uint8_t>(msg.index() + 1));
  std::visit([&w](const auto& m) { w(m); }, msg);
  return std::move(w).take();
}

InnerMsg decode_inner(const Payload& frame) { return decode_inner_from(wire::Reader(frame)); }

InnerMsg decode_inner(std::span<const std::uint8_t> raw) {
  return decode_inner_from(wire::Reader(raw));
}

std::size_t inner_payload_size(const InnerMsg& msg) {
  return std::visit(
      []<typename T>(const T& m) -> std::size_t {
        if constexpr (std::is_same_v<T, Forward> || std::is_same_v<T, Ordered> ||
                      std::is_same_v<T, PrivateMsg>) {
          return m.payload.size();
        } else if constexpr (std::is_same_v<T, SyncState>) {
          std::size_t total = 0;
          for (const auto& o : m.buffered) total += o.payload.size();
          for (const auto& f : m.pending) total += f.payload.size();
          return total;
        } else {
          return 0;
        }
      },
      msg);
}

}  // namespace vdep::gcs
