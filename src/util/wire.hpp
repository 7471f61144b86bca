// Wire layouts stated once.
//
// Each infrastructure message, checkpointed state layout and CDR layout
// declares its layout as one field list, a `wire_fields(io, msg)` function
// found by argument-dependent lookup (usually a hidden friend next to the
// fields it lists):
//
//   template <typename IO>
//   friend void wire_fields(IO& io, OrdAck& m) { io(m.from, m.group, m.epoch, m.seq); }
//
// wire::BasicWriter runs the list over a byte sink and wire::BasicReader
// runs the same list over the matching source, so an encoder and its
// decoder cannot drift apart. Writer/Reader use ByteWriter/ByteReader, the
// infrastructure's packed little-endian framing; orb::cdr_encode/cdr_decode
// use the CDR codec, which aligns primitives, NUL-terminates strings and
// widens enums to four bytes (src/orb/cdr.hpp). Both readers are built on
// detail::ByteSource (util/bytes.hpp), the one place that bounds every read
// and every element count, so a list decodes as strictly over either
// framing. A decoder fills a fresh value, so a caller that commits the value
// only after decoding returned never applies half a malformed input.
//
// Encoding takes two passes over the list. The size pass runs it over the
// sink's Sizer (ByteSizer, CdrSizer), which counts what the sink would
// write, alignment padding included, and writes nothing. The write pass
// then fills one block of exactly that size: wire::encode, cdr_encode and
// the frame encoders built on encode_with allocate once per message and
// never grow a buffer. A write past the block, or a block left short,
// fails a VDEP_ASSERT in every build type. Field kinds:
//   io(a, b, ...)            fixed-width integers, double, SimTime and ids
//                            as 64-bit values, bool as one byte (decode
//                            rejects values above 1), Payload, Bytes and
//                            std::string (std::string_view to encode) as
//                            length-prefixed blobs, std::optional as a
//                            one-byte flag then the value, nested messages
//                            inline
//   io.enum_in(e, lo, hi, w) an enum as the codec's Enum type, rejected
//                            outside [lo, hi]
//   io.seq(c, min_bytes)     u32 count + elements of a vector, set or map;
//                            decode bounds the count by the bytes left
//   io.blob(m)               one value as a length-prefixed nested encoding
//                            (packed framing only)
//   io.seq_blobs(c, min)     u32 count + each element as an io.blob
//   io.align(n), io.rest(p)  CDR only: pad to a multiple of n; a Payload
//                            holding the bytes up to the end of the frame,
//                            unprefixed
//   io.check(cond, what)     decode throws DecodeError; encode asserts
//   IO::kDecoding            true in a reader, for a field whose wire form
//                            differs from its member
//
// Decoding through a Reader built on a Payload is zero-copy: Payload
// fields alias the frame; a reader built on a plain span copies them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename Sink, typename... T>
[[nodiscard]] std::size_t encoded_size(const T&... fields);

template <typename Sink>
class BasicWriter {
 public:
  static constexpr bool kDecoding = false;

  BasicWriter() = default;
  explicit BasicWriter(Sink sink) : w_(std::move(sink)) {}

  template <typename... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }

  template <typename E>
  void enum_in(E value, E /*lo*/, E /*hi*/, const char* /*what*/) {
    put(static_cast<typename Sink::Enum>(value));
  }

  template <typename C>
  void seq(const C& items, std::size_t /*min_element_bytes*/) {
    w_.u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) put(item);
  }

  template <typename C>
  void seq_blobs(const C& items, std::size_t /*min_element_bytes*/) {
    w_.u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) blob(item);
  }

  // The blob is written in place after its size pass; in the packed
  // framing that is byte for byte its own encoding (CDR would realign it).
  template <typename T>
  void blob(const T& item) {
    static_assert(!requires { w_.align(1); }, "blob is packed framing only");
    w_.u32(static_cast<std::uint32_t>(encoded_size<Sink>(item)));
    put(item);
  }

  void align(std::size_t n) { w_.align(n); }
  void rest(std::span<const std::uint8_t> v) { w_.raw(v); }

  void check(bool cond, const char* what) { VDEP_ASSERT_MSG(cond, what); }

  // Bytes written (or, in a size pass, counted) so far.
  [[nodiscard]] std::size_t size() const { return w_.size(); }

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
    else if constexpr (std::is_same_v<T, bool>) w_.boolean(v);
    else if constexpr (kIsId<T>) w_.u64(v.value());
    else if constexpr (std::is_same_v<T, Payload>) w_.bytes(v);
    else if constexpr (std::is_same_v<T, Bytes>) w_.bytes(v);
    else if constexpr (std::is_same_v<T, std::string>) w_.str(v);
    else if constexpr (std::is_same_v<T, std::string_view>) w_.str(v);
    else if constexpr (kIsOptional<T>) {
      put(v.has_value());
      if (v) put(*v);
    } else {
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

  Sink w_;
};

template <typename Source>
class BasicReader {
 public:
  static constexpr bool kDecoding = true;

  explicit BasicReader(Source source) : r_(std::move(source)) {}
  explicit BasicReader(std::span<const std::uint8_t> raw) : r_(raw) {}
  // Payload fields decoded through this reader alias `frame`.
  explicit BasicReader(const Payload& frame) : r_(frame.owner(), frame) {}

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
    using Enum = typename Source::Enum;
    const std::size_t at = r_.pos();
    const auto v = read<Enum>();
    if (v < static_cast<Enum>(lo) || v > static_cast<Enum>(hi)) {
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
    for (std::uint32_t i = 0; i < n; ++i) blob(items.emplace_back());
  }

  // Decodes within the blob's bytes only; bytes it leaves are ignored.
  template <typename T>
  void blob(T& item) {
    BasicReader nested(r_.owner(), r_.bytes_view());
    nested(item);
  }

  void align(std::size_t n) { r_.align(n); }
  void rest(Payload& v) { v = aliased(r_.rest()); }

  void check(bool cond, const char* what) {
    if (!cond) throw r_.error(what);
  }

  [[nodiscard]] bool at_end() const { return r_.at_end(); }

 private:
  BasicReader(std::shared_ptr<const void> owner, std::span<const std::uint8_t> raw)
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
    else if constexpr (std::is_same_v<T, bool>) v = r_.boolean();
    else if constexpr (kIsId<T>) v = T{r_.u64()};
    else if constexpr (std::is_same_v<T, Payload>) v = aliased(r_.bytes_view());
    else if constexpr (std::is_same_v<T, Bytes>) v = r_.bytes();
    else if constexpr (std::is_same_v<T, std::string>) v = r_.str();
    else if constexpr (kIsOptional<T>) {
      v.reset();
      if (read<bool>()) v = read<typename T::value_type>();
    } else {
      static_assert(!std::is_enum_v<T>, "enums go through enum_in");
      wire_fields(*this, v);
    }
  }

  template <typename K, typename V>
  void get(std::pair<K, V>& kv) {
    get(kv.first);
    get(kv.second);
  }

  [[nodiscard]] Payload aliased(std::span<const std::uint8_t> bytes) const {
    return Payload::alias_or_copy(r_.owner(), bytes);
  }

  Source r_;
};

using Writer = BasicWriter<ByteWriter>;
using Reader = BasicReader<ByteReader>;

// The exact length of `fields` written through Sink: the size pass.
template <typename Sink, typename... T>
std::size_t encoded_size(const T&... fields) {
  BasicWriter<typename Sink::Sizer> sizer;
  sizer(fields...);
  return sizer.size();
}

// Writes `fields`, which take exactly `size` bytes through Sink, into one
// block of that size: a Payload (its bytes and its reference count in one
// allocation) or Bytes. Asserts that the write filled the block.
template <typename Out, typename Sink, typename... T>
[[nodiscard]] Out encode_sized(std::size_t size, const T&... fields) {
  auto fill = [&](std::span<std::uint8_t> out) {
    BasicWriter<Sink> w{Sink(out)};
    w(fields...);
    VDEP_ASSERT_MSG(w.size() == size, "the write pass disagrees with the size pass");
  };
  if constexpr (std::is_same_v<Out, Payload>) {
    return Payload::filled(size, fill);
  } else {
    static_assert(std::is_same_v<Out, Bytes>, "encodes into a Payload or Bytes");
    Bytes out(size);
    fill(out);
    return out;
  }
}

template <typename Out, typename Sink, typename... T>
[[nodiscard]] Out encode_with(const T&... fields) {
  return encode_sized<Out, Sink>(encoded_size<Sink>(fields...), fields...);
}

// Encodes one message in the packed framing.
template <typename Out = Payload, typename T>
[[nodiscard]] Out encode(const T& msg) {
  return encode_with<Out, ByteWriter>(msg);
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
