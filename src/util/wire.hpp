// Wire layouts stated once.
//
// Each infrastructure message declares its layout as one field list, a
// `wire_fields(io, msg)` function found by argument-dependent lookup
// (usually a hidden friend next to the fields it lists):
//
//   template <typename IO>
//   friend void wire_fields(IO& io, OrdAck& m) { io(m.from, m.group, m.epoch, m.seq); }
//
// wire::Writer runs the list over a ByteWriter and wire::Reader runs the
// same list over a ByteReader, so an encoder and its decoder cannot drift
// apart. Field kinds:
//   io(a, b, ...)            fixed-width integers, double, SimTime and ids
//                            as 64-bit values, Payload and std::string as
//                            length-prefixed blobs, nested messages inline
//   io.enum_in(e, lo, hi, w) an enum as one byte, rejected outside [lo, hi]
//   io.seq(c, min_bytes)     u32 count + elements of a vector, set or map;
//                            decode bounds the count by the bytes left
//   io.seq_blobs(c, min)     u32 count + each element as a length-prefixed
//                            nested encoding
//   io.check(cond, what)     decode throws DecodeError; encode asserts
//
// Decoding through a Reader built on a Payload is zero-copy: Payload
// fields alias the frame (see read_payload).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/payload.hpp"
#include "util/time.hpp"

namespace vdep::wire {

template <typename T>
inline constexpr bool kIsId = false;
template <typename Tag>
inline constexpr bool kIsId<vdep::detail::StrongId<Tag>> = true;

class Writer {
 public:
  explicit Writer(std::size_t reserve = 0) : w_(reserve) {}

  template <typename... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }

  template <typename E>
  void enum_in(E value, E /*lo*/, E /*hi*/, const char* /*what*/) {
    w_.u8(static_cast<std::uint8_t>(value));
  }

  template <typename C>
  void seq(const C& items, std::size_t /*min_element_bytes*/) {
    w_.u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) put(item);
  }

  template <typename C>
  void seq_blobs(const C& items, std::size_t /*min_element_bytes*/) {
    w_.u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) {
      Writer blob;
      blob(item);
      w_.bytes(blob.w_.data());
    }
  }

  void check(bool cond, const char* what) { VDEP_ASSERT_MSG(cond, what); }

  [[nodiscard]] Bytes take() && { return std::move(w_).take(); }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) w_.u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) w_.u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) w_.u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) w_.u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) w_.i64(v);
    else if constexpr (std::is_same_v<T, double>) w_.f64(v);
    else if constexpr (std::is_same_v<T, SimTime>) w_.i64(v.count());
    else if constexpr (kIsId<T>) w_.u64(v.value());
    else if constexpr (std::is_same_v<T, Payload>) w_.bytes(v);
    else if constexpr (std::is_same_v<T, std::string>) w_.str(v);
    else {
      static_assert(!std::is_enum_v<T>, "enums go through enum_in");
      // The field list takes its message by non-const reference so that
      // one list serves both directions; the Writer only reads through it.
      wire_fields(*this, const_cast<T&>(v));
    }
  }

  template <typename K, typename V>
  void put(const std::pair<K, V>& kv) {
    put(kv.first);
    put(kv.second);
  }

  ByteWriter w_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> raw) : r_(raw) {}
  // Payload fields decoded through this reader alias `frame`.
  explicit Reader(const Payload& frame) : r_(frame.owner(), frame) {}

  template <typename... T>
  void operator()(T&... fields) {
    (get(fields), ...);
  }

  template <typename T>
  [[nodiscard]] T read() {
    T v{};
    get(v);
    return v;
  }

  template <typename E>
  void enum_in(E& value, E lo, E hi, const char* what) {
    const std::size_t at = r_.pos();
    const std::uint8_t v = r_.u8();
    if (v < static_cast<std::uint8_t>(lo) || v > static_cast<std::uint8_t>(hi)) {
      throw r_.error(what, at);
    }
    value = static_cast<E>(v);
  }

  template <typename C>
  void seq(C& items, std::size_t min_element_bytes) {
    const std::uint32_t n = r_.count(min_element_bytes);
    if constexpr (requires { items.reserve(n); }) items.reserve(n);
    // Elements arrive in container order, so end() is the insertion hint;
    // a repeated map key keeps its last value.
    for (std::uint32_t i = 0; i < n; ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        auto key = read<typename C::key_type>();
        items.insert_or_assign(items.end(), std::move(key), read<typename C::mapped_type>());
      } else {
        items.insert(items.end(), read<typename C::value_type>());
      }
    }
  }

  template <typename C>
  void seq_blobs(C& items, std::size_t min_element_bytes) {
    const std::uint32_t n = r_.count(min_element_bytes);
    items.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Reader blob(r_.owner(), r_.bytes_view());
      items.push_back(blob.read<typename C::value_type>());
    }
  }

  void check(bool cond, const char* what) {
    if (!cond) throw r_.error(what);
  }

  [[nodiscard]] bool at_end() const { return r_.at_end(); }

 private:
  Reader(std::shared_ptr<const void> owner, std::span<const std::uint8_t> raw)
      : r_(std::move(owner), raw) {}

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) v = r_.u8();
    else if constexpr (std::is_same_v<T, std::uint16_t>) v = r_.u16();
    else if constexpr (std::is_same_v<T, std::uint32_t>) v = r_.u32();
    else if constexpr (std::is_same_v<T, std::uint64_t>) v = r_.u64();
    else if constexpr (std::is_same_v<T, std::int64_t>) v = r_.i64();
    else if constexpr (std::is_same_v<T, double>) v = r_.f64();
    else if constexpr (std::is_same_v<T, SimTime>) v = SimTime{r_.i64()};
    else if constexpr (kIsId<T>) v = T{r_.u64()};
    else if constexpr (std::is_same_v<T, Payload>) v = read_payload(r_);
    else if constexpr (std::is_same_v<T, std::string>) v = r_.str();
    else {
      static_assert(!std::is_enum_v<T>, "enums go through enum_in");
      wire_fields(*this, v);
    }
  }

  ByteReader r_;
};

// Encodes one message; `reserve` pre-sizes the buffer.
template <typename T>
[[nodiscard]] Bytes encode(const T& msg, std::size_t reserve = 0) {
  Writer w(reserve);
  w(msg);
  return std::move(w).take();
}

// Decodes one message; trailing bytes are ignored. The Payload overload
// aliases `raw`; the span overload copies Payload fields out.
template <typename T>
[[nodiscard]] T decode(const Payload& raw) {
  Reader r(raw);
  return r.read<T>();
}
template <typename T>
[[nodiscard]] T decode(std::span<const std::uint8_t> raw) {
  Reader r(raw);
  return r.read<T>();
}

}  // namespace vdep::wire
