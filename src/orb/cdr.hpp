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

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/wire.hpp"

namespace vdep::orb {

class CdrWriter {
 public:
  using Enum = std::uint32_t;  // CDR enums are unsigned longs

  CdrWriter() = default;
  explicit CdrWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) { aligned(v); }
  void u32(std::uint32_t v) { aligned(v); }
  void u64(std::uint64_t v) { aligned(v); }
  void i64(std::int64_t v) { aligned(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  // CORBA string: ulong length including NUL, bytes, NUL.
  void str(std::string_view v);
  // sequence<octet>: ulong length + bytes.
  void bytes(std::span<const std::uint8_t> v);
  // Bytes appended as they are.
  void raw(std::span<const std::uint8_t> v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  void align(std::size_t n);

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void aligned(T v) {
    align(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

class CdrReader {
 public:
  using Enum = std::uint32_t;

  // `little_endian` is the stream's byte-order flag (from the GIOP header).
  // The reader aliases `data`; it must not outlive the underlying buffer.
  explicit CdrReader(std::span<const std::uint8_t> data, bool little_endian = true)
      : data_(data), little_(little_endian) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::uint16_t u16() { return aligned<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return aligned<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return aligned<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] Bytes bytes();
  // The bytes up to the end of the stream.
  [[nodiscard]] Bytes rest();
  // A ulong element count, bounded as ByteReader::count bounds it.
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes);
  void align(std::size_t n);

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
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
  bool little_;
  std::size_t pos_ = 0;
};

// Encodes one field list (or one field) in CDR.
template <typename T>
[[nodiscard]] Bytes cdr_encode(const T& value, std::size_t reserve = 0) {
  wire::BasicWriter<CdrWriter> w(reserve);
  w(value);
  return std::move(w).take();
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
