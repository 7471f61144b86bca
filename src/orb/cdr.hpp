// CDR (Common Data Representation) marshaling, CORBA-style.
//
// Application payloads and GIOP messages travel in CDR: primitive types are
// aligned to their natural boundary relative to the start of the stream,
// strings carry their NUL and enums are four bytes. Every stream is
// little-endian, as an x86 TAO writes it; decode_giop rejects a GIOP header
// whose byte-order flag says big-endian. This is the encoding the replicator
// intercepts and re-writes when it injects FT service contexts.
//
// CdrWriter/CdrReader have the primitive interface of ByteWriter/ByteReader
// and are built on the same cores (detail::ByteSink, detail::ByteSource),
// so the wire_fields lists of util/wire.hpp run over CDR as well:
// cdr_encode/cdr_decode are wire::encode/decode for CDR.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/wire.hpp"

namespace vdep::orb {

// Writes CDR into a buffer sized beforehand (CdrWriter), or counts the
// bytes it would write, padding included (CdrSizer). Alignment is relative
// to the start of the stream, as in the reader.
template <bool kWrite>
class BasicCdrWriter : public detail::ByteSink<kWrite> {
 public:
  using Enum = std::uint32_t;  // CDR enums are unsigned longs
  using Sizer = BasicCdrWriter<false>;
  using detail::ByteSink<kWrite>::ByteSink;

  void u8(std::uint8_t v) { this->little_endian(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) { aligned(v); }
  void u32(std::uint32_t v) { aligned(v); }
  void u64(std::uint64_t v) { aligned(v); }
  void i64(std::int64_t v) { aligned(static_cast<std::uint64_t>(v)); }
  void f64(double v) { aligned(std::bit_cast<std::uint64_t>(v)); }
  // CORBA string: ulong length including NUL, bytes, NUL.
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size() + 1));
    this->raw({reinterpret_cast<const std::uint8_t*>(v.data()), v.size()});
    u8(0);
  }
  // sequence<octet>: ulong length + bytes.
  void bytes(std::span<const std::uint8_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    this->raw(v);
  }
  void align(std::size_t n) { this->zeros((n - this->size() % n) % n); }

 private:
  template <typename T>
  void aligned(T v) {
    align(sizeof(T));
    this->little_endian(v);
  }
};

using CdrWriter = BasicCdrWriter<true>;
using CdrSizer = BasicCdrWriter<false>;

// Reads CDR written by CdrWriter: ByteSource's core plus CDR's alignment
// relative to the stream start and NUL-terminated strings.
class CdrReader : public detail::ByteSource<CdrReader> {
 public:
  using Enum = std::uint32_t;
  using ByteSource::ByteSource;

  [[nodiscard]] std::uint16_t u16() { return aligned<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return aligned<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return aligned<std::uint64_t>(); }
  // CORBA string: ulong length including NUL, bytes, NUL.
  [[nodiscard]] std::string str() {
    const std::size_t at = pos();
    const std::uint32_t len = u32();
    if (len == 0) throw error("string must include its NUL", at);
    const auto s = take(len);
    if (s.back() != 0) throw error("string missing NUL", at);
    return std::string(reinterpret_cast<const char*>(s.data()), len - 1);
  }
  // The bytes up to the end of the stream, aliasing it.
  [[nodiscard]] std::span<const std::uint8_t> rest() { return take(remaining()); }
  void align(std::size_t n) { (void)take((n - pos() % n) % n); }

 private:
  template <typename T>
  [[nodiscard]] T aligned() {
    align(sizeof(T));
    return little_endian<T>();
  }
};

// Encodes one field list (or one field) in CDR, into one exactly sized
// Payload or Bytes (see wire::encode_with).
template <typename Out = Payload, typename T>
[[nodiscard]] Out cdr_encode(const T& value) {
  return wire::encode_with<Out, CdrWriter>(value);
}

// Decodes one field list (or one field) from little-endian CDR; trailing
// bytes are ignored. Members the list does not read keep their values from
// `into` (say, the operation that picks which arguments follow).
template <typename T>
[[nodiscard]] T cdr_decode(std::span<const std::uint8_t> raw, T into = T{}) {
  wire::BasicReader<CdrReader> r(raw);
  r(into);
  return into;
}

}  // namespace vdep::orb
