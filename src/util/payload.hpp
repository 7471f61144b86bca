// Immutable, ref-counted byte buffer slices for the message hot path.
//
// A Payload is a frozen view onto a shared byte buffer: copying one is a
// pointer copy plus a refcount bump, never a byte copy. This is what lets the
// leader daemon encode a fan-out frame once and hand the same buffer to every
// destination, and what lets decode alias sub-ranges of a received frame
// (via a reader that carries the frame's owner, util/wire.hpp) instead of
// splicing them out.
//
// Invariants:
//  - The underlying buffer is never mutated after the Payload is built.
//  - An aliasing Payload keeps its owning buffer alive via `owner_`; a view
//    taken *without* an owner (plain span) must not outlive the frame it was
//    cut from — use copy_of() when in doubt.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "util/bytes.hpp"

namespace vdep {

class Payload {
 public:
  Payload() = default;

  // Freezes a buffer. Implicit on rvalues only: adopting a Bytes is one move,
  // while adopting an lvalue would silently deep-copy — spell that copy_of().
  // The adopted vector keeps its own block, so this costs a second one for
  // the reference count; encoders build single-block Payloads (filled()).
  Payload(Bytes&& buf) {  // NOLINT(google-explicit-constructor)
    auto owned = std::make_shared<const Bytes>(std::move(buf));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }

  // Aliasing view: `view` must point into storage kept alive by `owner`.
  Payload(std::shared_ptr<const void> owner, std::span<const std::uint8_t> view)
      : owner_(std::move(owner)), data_(view.data()), size_(view.size()) {}

  // One allocation holding `size` bytes and their reference count; `fill`
  // writes every byte of the span it is handed. The encoders build their
  // frames this way (util/wire.hpp).
  template <typename Fill>
  [[nodiscard]] static Payload filled(std::size_t size, Fill&& fill) {
    auto block = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    std::uint8_t* data = block.get();
    fill(std::span<std::uint8_t>(data, size));
    return Payload(std::shared_ptr<const void>(std::move(block), data), {data, size});
  }

  [[nodiscard]] static Payload copy_of(std::span<const std::uint8_t> view) {
    return filled(view.size(), [view](std::span<std::uint8_t> out) {
      if (!view.empty()) std::memcpy(out.data(), view.data(), view.size());
    });
  }

  // An alias of `view` kept alive by `owner`, or a copy when there is none,
  // so the result is always safe to retain.
  [[nodiscard]] static Payload alias_or_copy(const std::shared_ptr<const void>& owner,
                                             std::span<const std::uint8_t> view) {
    return owner ? Payload(owner, view) : copy_of(view);
  }

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] std::span<const std::uint8_t> view() const { return {data_, size_}; }
  operator std::span<const std::uint8_t>() const { return view(); }  // NOLINT

  // Deep copy back into a plain vector (boundary to non-Payload APIs).
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  // Number of Payloads (and readers) sharing the underlying buffer.
  // Diagnostic only — used by tests to assert fan-out really shares.
  [[nodiscard]] long use_count() const { return owner_.use_count(); }

  // Keepalive for the underlying buffer; a reader built on this Payload
  // holds it so decoded sub-views can alias this frame.
  [[nodiscard]] const std::shared_ptr<const void>& owner() const { return owner_; }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Bytes& a, const Payload& b) { return b == a; }

 private:
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace vdep
