// Flat byte buffers and a little-endian serialization reader/writer.
//
// This is the wire format used *inside* the simulated infrastructure (group
// communication headers, checkpoints, replicated-state updates); messages
// state their layouts over it as field lists (util/wire.hpp). Application
// payloads carried over the ORB use the CDR encoding in src/orb/cdr.hpp,
// which follows CORBA alignment rules instead.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vdep {

using Bytes = std::vector<std::uint8_t>;

// Thrown when a Reader runs past the end of its buffer or decodes an
// out-of-range value; indicates a malformed message.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

// Appends fixed-width little-endian integers, length-prefixed blobs and
// strings to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw_int(v); }
  void u32(std::uint32_t v) { raw_int(v); }
  void u64(std::uint64_t v) { raw_int(v); }
  void i64(std::int64_t v) { raw_int(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    raw_int(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void raw_int(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

// Reads values written by ByteWriter. Throws DecodeError on underrun; error
// messages carry the reader position so malformed frames are diagnosable.
//
// A reader may carry an `owner` keepalive for the frame it reads from; when
// present, bytes_view()/str_view() results (and Payloads cut from them via
// read_payload) may safely alias the frame, since whoever holds the owner
// keeps the storage alive.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  ByteReader(std::shared_ptr<const void> owner, std::span<const std::uint8_t> data)
      : data_(data), owner_(std::move(owner)) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return raw_int<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return raw_int<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return raw_int<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] bool boolean() {
    std::uint8_t v = u8();
    if (v > 1) throw error("boolean out of range", pos_ - 1);
    return v == 1;
  }

  [[nodiscard]] Bytes bytes() {
    auto s = bytes_view();
    return Bytes(s.begin(), s.end());
  }
  [[nodiscard]] std::string str() {
    auto s = str_view();
    return std::string(s);
  }

  // Non-copying accessors: the returned view aliases the reader's buffer and
  // is only valid while that buffer (or the reader's owner) lives.
  [[nodiscard]] std::span<const std::uint8_t> bytes_view() {
    const std::uint32_t n = u32();
    return take(n);
  }
  [[nodiscard]] std::string_view str_view() {
    auto s = bytes_view();
    return std::string_view(reinterpret_cast<const char*>(s.data()), s.size());
  }

  // A u32 element count read from the frame. Each element takes at least
  // `min_element_bytes`, so a count the remaining bytes cannot hold is
  // corrupt; rejecting it keeps a hostile count from driving reserve().
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes) {
    const std::size_t at = pos_;
    const std::uint32_t n = u32();
    if (n > remaining() / min_element_bytes) throw error("element count exceeds frame", at);
    return n;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  [[nodiscard]] const std::shared_ptr<const void>& owner() const { return owner_; }

  // Builds a DecodeError annotated with the current (or given) position, for
  // range checks performed by message decoders on top of this reader.
  [[nodiscard]] DecodeError error(const std::string& what) const {
    return error(what, pos_);
  }
  [[nodiscard]] DecodeError error(const std::string& what, std::size_t at) const {
    return DecodeError(what + " at byte " + std::to_string(at) + " of " +
                       std::to_string(data_.size()));
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) throw error("buffer underrun");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  [[nodiscard]] T raw_int() {
    auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(s[i]) << (8 * i)));
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::shared_ptr<const void> owner_;
  std::size_t pos_ = 0;
};

// Produces a payload of `size` deterministic filler bytes (used by workload
// generators for request/reply bodies of a given size).
[[nodiscard]] Bytes filler_bytes(std::size_t size, std::uint8_t seed = 0x5a);

// FNV-1a over a byte span; used for state digests in consistency checks.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> data);

}  // namespace vdep
