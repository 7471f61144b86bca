// CDR (Common Data Representation) marshaling, CORBA-style.
//
// Application payloads and GIOP messages travel in CDR: primitive types are
// aligned to their natural boundary relative to the start of the stream,
// strings carry their NUL, enums are four bytes, and a byte-order flag lets
// a reader decode either endianness (we emit little-endian, as an x86 TAO
// would). This is the encoding the replicator intercepts and re-writes when
// it injects FT service contexts.
//
// CdrWriter/CdrReader have the primitive interface of ByteWriter/ByteReader,
// so the wire_fields lists of util/wire.hpp run over CDR as well:
// cdr_encode/cdr_decode are wire::encode/decode for CDR.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
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

class CdrReader {
 public:
  using Enum = std::uint32_t;

  // `little_endian` is the stream's byte-order flag (from the GIOP header).
  // The reader aliases `data`; it must not outlive the underlying buffer.
  // With an `owner` keeping `data` alive, decoded Payload fields alias it,
  // as with ByteReader.
  explicit CdrReader(std::span<const std::uint8_t> data, bool little_endian = true)
      : data_(data), little_(little_endian) {}
  CdrReader(std::shared_ptr<const void> owner, std::span<const std::uint8_t> data,
            bool little_endian = true)
      : data_(data), owner_(std::move(owner)), little_(little_endian) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::uint16_t u16() { return aligned<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return aligned<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return aligned<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] Bytes bytes();
  // A sequence<octet>'s bytes, aliasing the stream.
  [[nodiscard]] std::span<const std::uint8_t> bytes_view() { return take(u32()); }
  // The bytes up to the end of the stream, aliasing it.
  [[nodiscard]] std::span<const std::uint8_t> rest() { return take(remaining()); }
  // A ulong element count, bounded as ByteReader::count bounds it.
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes);
  void align(std::size_t n);

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] const std::shared_ptr<const void>& owner() const { return owner_; }
  [[nodiscard]] DecodeError error(const std::string& what) const { return error(what, pos_); }
  [[nodiscard]] DecodeError error(const std::string& what, std::size_t at) const;

 private:
  std::span<const std::uint8_t> take(std::size_t n);

  template <typename T>
  [[nodiscard]] T aligned() {
    align(sizeof(T));
    const auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      const std::size_t shift = 8 * (little_ ? i : sizeof(T) - 1 - i);
      v = static_cast<T>(v | (static_cast<T>(s[i]) << shift));
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::shared_ptr<const void> owner_;
  bool little_;
  std::size_t pos_ = 0;
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
