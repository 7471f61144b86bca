// Small-buffer closures for the simulation hot path.
//
// Every simulated action in the repository is a closure scheduled on the
// kernel; with std::function, any capture beyond two pointers heap-allocates
// on every schedule. A Closure stores callables up to kInlineBytes inline and
// falls back to the heap only for cold, bulky captures such as loopback
// copies of whole messages. EventClosure, the kernel's event type, takes no
// arguments; a continuation that is handed a value (the ORB's reply sender)
// is a Closure of that signature. Move-only: a closure runs once, so there
// is nothing to copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace vdep::sim {

namespace detail {
// Closures the calling thread has stored on the heap. Thread-local, so
// trials on the parallel fleet do not race it.
inline thread_local std::uint64_t closure_heap_fallbacks = 0;
}  // namespace detail

template <typename Signature, std::size_t kInline>
class Closure;

template <std::size_t kInline, typename... Args>
class Closure<void(Args...), kInline> {
 public:
  static constexpr std::size_t kInlineBytes = kInline;

  Closure() = default;

  // Implicit, like std::function: any move-constructible callable. Copyable
  // callables (e.g. a std::function handed in by cold-path code) still work —
  // they are moved or copied in once, never copied again.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, Closure> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&, Args...>>>
  Closure(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ++detail::closure_heap_fallbacks;
      *reinterpret_cast<Fn**>(static_cast<void*>(buf_)) = new Fn(std::forward<F>(fn));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Closure(Closure&& other) noexcept { move_from(other); }
  Closure& operator=(Closure&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Closure(const Closure&) = delete;
  Closure& operator=(const Closure&) = delete;

  ~Closure() { reset(); }

  // Destroys the held callable (releasing captured resources) and empties.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()(Args... args) {
    VDEP_ASSERT_MSG(ops_ != nullptr, "invoking an empty Closure");
    ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  // Closures of any signature the calling thread has stored on the heap
  // since it started.
  [[nodiscard]] static std::uint64_t heap_fallbacks() {
    return detail::closure_heap_fallbacks;
  }

  // True when a callable of type Fn is stored inline (no heap allocation).
  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self, Args&&... args);
    // Move-constructs the callable at dst from src, then destroys src.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) {
        (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        auto* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) { static_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) {
        (**static_cast<Fn**>(self))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* self) { delete *static_cast<Fn**>(self); },
  };

  void move_from(Closure& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// 160 bytes hold the largest request-path capture: a ServerOrb dispatch
// step, which carries the request or reply frame, the caller's trace
// context, a liveness guard and the 80-byte reply continuation. Every event
// pays for the buffer in its queue slot (docs/KERNEL.md).
using EventClosure = Closure<void(), 160>;

}  // namespace vdep::sim
