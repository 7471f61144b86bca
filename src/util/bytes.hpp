// Flat byte buffers and a little-endian serialization reader/writer.
//
// This is the wire format used *inside* the simulated infrastructure (group
// communication headers, checkpoints, replicated-state updates); messages
// state their layouts over it as field lists (util/wire.hpp). Application
// payloads carried over the ORB use the CDR encoding in src/orb/cdr.hpp,
// which follows CORBA alignment rules instead.
//
// The two framings share their plumbing: the writers are built on
// detail::ByteSink and the readers on detail::ByteSource, which holds the
// bounds check, the element-count bound and the decode errors for both.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace vdep {

using Bytes = std::vector<std::uint8_t>;

// Thrown when a Reader runs past the end of its buffer or decodes an
// out-of-range value; indicates a malformed message.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

// The core both byte codecs share. With kWrite, it writes into a buffer
// sized beforehand and asserts (in every build type) that no write runs
// past it. Without kWrite, it writes nothing and only counts: the size pass
// of util/wire.hpp, which sizes that buffer exactly.
template <bool kWrite>
class ByteSink {
 public:
  ByteSink() requires(!kWrite) = default;
  explicit ByteSink(std::span<std::uint8_t> out) requires kWrite : out_(out) {}

  // Bytes appended as they are.
  void raw(std::span<const std::uint8_t> v) {
    if constexpr (kWrite) {
      if (!v.empty()) std::memcpy(grab(v.size()), v.data(), v.size());
    } else {
      pos_ += v.size();
    }
  }

  // Bytes written (or counted) so far.
  [[nodiscard]] std::size_t size() const { return pos_; }

 protected:
  template <typename T>
  void little_endian(T v) {
    if constexpr (kWrite) {
      std::uint8_t* p = grab(sizeof(T));
      for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    } else {
      pos_ += sizeof(T);
    }
  }

  void zeros(std::size_t n) {
    if constexpr (kWrite) {
      if (n > 0) std::memset(grab(n), 0, n);
    } else {
      pos_ += n;
    }
  }

 private:
  std::uint8_t* grab(std::size_t n) {
    VDEP_ASSERT_MSG(n <= out_.size() - pos_, "write past the end of the sized buffer");
    std::uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

}  // namespace detail

// Writes fixed-width little-endian integers, length-prefixed blobs and
// strings: ByteWriter into a buffer sized beforehand, ByteSizer counting
// the bytes ByteWriter would write for the same calls.
template <bool kWrite>
class BasicByteWriter : public detail::ByteSink<kWrite> {
 public:
  using Enum = std::uint8_t;  // enums travel as one byte
  using Sizer = BasicByteWriter<false>;
  using detail::ByteSink<kWrite>::ByteSink;

  void u8(std::uint8_t v) { this->little_endian(v); }
  void u16(std::uint16_t v) { this->little_endian(v); }
  void u32(std::uint32_t v) { this->little_endian(v); }
  void u64(std::uint64_t v) { this->little_endian(v); }
  void i64(std::int64_t v) { this->little_endian(static_cast<std::uint64_t>(v)); }
  void f64(double v) { this->little_endian(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    this->raw(v);
  }
  void str(std::string_view v) {
    bytes({reinterpret_cast<const std::uint8_t*>(v.data()), v.size()});
  }
};

using ByteWriter = BasicByteWriter<true>;
using ByteSizer = BasicByteWriter<false>;

namespace detail {

// The core both byte readers share, the mirror of ByteSink: the frame, its
// owner and the read position; the bounds check every read goes through;
// element counts bounded by the bytes left; and position-annotated
// DecodeErrors. `Framing` (ByteReader, orb::CdrReader) supplies u32/u64,
// which lay out (and, in CDR, align) the integers the core reads through it.
//
// With an `owner` keepalive for the frame, bytes_view() results (and the
// Payloads wire::BasicReader cuts from them) may alias the frame, since
// whoever holds the owner keeps the storage alive. Without one, views are
// only valid while the frame is.
template <typename Framing>
class ByteSource {
 public:
  explicit ByteSource(std::span<const std::uint8_t> data) : data_(data) {}
  ByteSource(std::shared_ptr<const void> owner, std::span<const std::uint8_t> data)
      : data_(data), owner_(std::move(owner)) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw error("boolean out of range", pos_ - 1);
    return v == 1;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(framing().u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(framing().u64()); }

  // A u32-length-prefixed byte string, aliasing the frame.
  [[nodiscard]] std::span<const std::uint8_t> bytes_view() { return take(framing().u32()); }
  [[nodiscard]] Bytes bytes() {
    const auto s = bytes_view();
    return Bytes(s.begin(), s.end());
  }

  // A u32 element count read from the frame. Each element takes at least
  // `min_element_bytes`, so a count the remaining bytes cannot hold is
  // corrupt; rejecting it keeps a hostile count from driving reserve().
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes) {
    const std::size_t at = pos_;
    const std::uint32_t n = framing().u32();
    if (n > remaining() / min_element_bytes) throw error("element count exceeds frame", at);
    return n;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  [[nodiscard]] const std::shared_ptr<const void>& owner() const { return owner_; }

  // Builds a DecodeError annotated with the current (or given) position, for
  // range checks performed by message decoders on top of this reader.
  [[nodiscard]] DecodeError error(const std::string& what) const { return error(what, pos_); }
  [[nodiscard]] DecodeError error(const std::string& what, std::size_t at) const {
    return DecodeError(what + " at byte " + std::to_string(at) + " of " +
                       std::to_string(data_.size()));
  }

 protected:
  // The next `n` bytes; throws DecodeError when fewer are left.
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) throw error("buffer underrun");
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  [[nodiscard]] T little_endian() {
    const auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(s[i]) << (8 * i)));
    }
    return v;
  }

 private:
  Framing& framing() { return static_cast<Framing&>(*this); }

  std::span<const std::uint8_t> data_;
  std::shared_ptr<const void> owner_;
  std::size_t pos_ = 0;
};

}  // namespace detail

// Reads values written by ByteWriter. Throws DecodeError on underrun; error
// messages carry the reader position so malformed frames are diagnosable.
class ByteReader : public detail::ByteSource<ByteReader> {
 public:
  using Enum = std::uint8_t;
  using ByteSource::ByteSource;

  [[nodiscard]] std::uint16_t u16() { return little_endian<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return little_endian<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return little_endian<std::uint64_t>(); }
  [[nodiscard]] std::string str() {
    const auto s = bytes_view();
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }
};

// Produces a payload of `size` deterministic filler bytes (used by workload
// generators for request/reply bodies of a given size).
[[nodiscard]] Bytes filler_bytes(std::size_t size, std::uint8_t seed = 0x5a);

// FNV-1a over a byte span; used for state digests in consistency checks.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> data);

}  // namespace vdep
