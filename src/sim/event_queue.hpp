// Timestamped event queue with deterministic tie-breaking, implemented as a
// hierarchical timer wheel.
//
// Events at the same simulated time fire in insertion order (FIFO), which is
// what makes whole-system runs bit-reproducible for a given seed. The wheel
// delivers exactly the order a binary heap keyed on (time, sequence) would —
// the structure is a performance choice, not a semantics change (pinned by
// the old-vs-new property test in sim_event_queue_test.cpp).
//
// Layout: 11 levels of 64 slots. Level 0 slots are 1 ns wide — every event
// in a level-0 slot shares an exact timestamp, so its FIFO list *is* the
// delivery order. Level L slots are 64^L ns wide; an event is filed at the
// level of the highest bit where its time differs from the wheel cursor
// (the last popped time). Each slot keeps an occupancy bit in a per-level
// bitmap, so "earliest pending slot" is a count-trailing-zeros on the first
// non-empty level. Popping cascades the earliest slot of the lowest
// non-empty level down (re-filing its events against the advanced cursor,
// preserving list order) until the earliest event sits in level 0.
//
// Scheduling is O(1): claim a pooled slot (recycled from a free list — no
// allocation in steady state, and the closure itself is stored inline, see
// event_closure.hpp), compute level/slot with an XOR and a CLZ, append to
// the slot's intrusive list. Each event cascades at most once per level on
// its way out, so pop is amortized O(levels) worst case and O(1) when
// events cluster near the cursor (the common case in scenarios).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_closure.hpp"
#include "util/time.hpp"

namespace vdep::sim {

using EventFn = EventClosure;

namespace detail {

// Generation-counted slot pool backing the wheel's event storage and the
// cancellation contract. One pool per queue: scheduling an event claims a
// slot (recycled from the free list, so the steady state performs no
// allocation), and popping or dropping the event retires it, bumping the
// generation so stale handles go inert. The slot embeds the event itself
// (timestamp, intrusive list link, inline closure), so the pool doubles as
// the arena for all pending-event state.
//
// Generation wraparound: generations are 32-bit and wrap. A stale handle
// could only be confused after exactly 2^32 schedule/retire cycles reuse
// its slot while the handle is still held — pops retire slots round-robin
// through the free list, so this is unreachable in practice (pinned by the
// wraparound test).
struct EventSlotPool {
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    std::int64_t at = 0;         // absolute time, ns
    std::uint32_t gen = 0;
    std::uint32_t next = kNil;   // intrusive FIFO link within a wheel slot
    bool cancelled = false;
    EventClosure fn;
  };

  std::vector<Slot> slots;
  std::vector<std::uint32_t> free;
  // Number of scheduled, non-cancelled events. Cancellation decrements this
  // immediately (the carcass is swept from the wheel lazily), so emptiness
  // is O(1) without the heap-top scrubbing the old implementation needed.
  std::uint64_t live = 0;

  std::uint32_t acquire();
  void retire(std::uint32_t idx);
  [[nodiscard]] bool current(std::uint32_t idx, std::uint32_t gen) const {
    return slots[idx].gen == gen;
  }
};

}  // namespace detail

// Handle for cancelling a scheduled event. Default-constructed handles are
// inert. Cancellation is O(1): the event stays in the wheel but is skipped.
// active() means "still pending": false before scheduling, after cancel(),
// and after the event has fired. Copies share cancellation state. Handles
// hold the pool alive, so they remain safe after the queue is destroyed
// (the queue retires every pending event on destruction, so such handles
// report inactive).
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<detail::EventSlotPool> pool, std::uint32_t slot,
              std::uint32_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::EventSlotPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `at`. Must not be earlier than the last
  // popped event time.
  EventHandle schedule(SimTime at, EventFn fn);

  // True when no non-cancelled events remain.
  [[nodiscard]] bool empty() const { return pool_->live == 0; }

  // Time of the earliest pending event; queue must not be empty.
  [[nodiscard]] SimTime next_time() const;

  // Pops and returns the earliest event. Queue must not be empty.
  struct Popped {
    SimTime at;
    EventFn fn;
  };
  [[nodiscard]] Popped pop();

  [[nodiscard]] std::size_t size() const { return pool_->live; }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;            // 64
  static constexpr int kLevels = 11;                        // 11*6 = 66 >= 63 bits
  static constexpr std::uint32_t kNil = detail::EventSlotPool::kNil;

  // Files slot `idx` (time `at`) into the wheel relative to cursor_.
  void place(std::uint32_t idx, std::uint64_t at) const;
  // Index of the lowest level with any occupied slot; queue must hold events.
  [[nodiscard]] int lowest_level() const;
  // Moves every event out of (level, slot) into lower levels after the
  // cursor advanced to the slot's base time, preserving FIFO order.
  void cascade(int level, int slot) const;

  std::shared_ptr<detail::EventSlotPool> pool_ =
      std::make_shared<detail::EventSlotPool>();
  // All wheel state is mutable: next_time() lazily sweeps cancelled events
  // and pop()-driven cascades are shared with it, the same const-laundering
  // the old heap's drop_cancelled() did.
  mutable std::uint64_t cursor_ = 0;  // last popped time (wheel origin)
  mutable std::uint64_t bitmap_[kLevels] = {};
  mutable std::uint32_t head_[kLevels][kSlots];
  mutable std::uint32_t tail_[kLevels][kSlots];
};

}  // namespace vdep::sim
