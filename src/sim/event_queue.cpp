#include "sim/event_queue.hpp"

#include <bit>

#include "util/assert.hpp"

namespace vdep::sim {

namespace detail {

std::uint32_t EventSlotPool::acquire() {
  if (!free.empty()) {
    std::uint32_t idx = free.back();
    free.pop_back();
    Slot& s = slots[idx];
    s.cancelled = false;
    s.next = kNil;
    return idx;
  }
  slots.push_back(Slot{});
  return static_cast<std::uint32_t>(slots.size() - 1);
}

void EventSlotPool::retire(std::uint32_t idx) {
  // Bumping the generation invalidates every outstanding handle for this
  // event; the slot is then free to be reused by a future schedule().
  Slot& s = slots[idx];
  ++s.gen;
  s.fn.reset();  // release captured resources now, not at reuse time
  free.push_back(idx);
}

}  // namespace detail

void EventHandle::cancel() {
  if (pool_ && pool_->current(slot_, gen_) && !pool_->slots[slot_].cancelled) {
    pool_->slots[slot_].cancelled = true;
    --pool_->live;
  }
}

bool EventHandle::active() const {
  return pool_ && pool_->current(slot_, gen_) && !pool_->slots[slot_].cancelled;
}

EventQueue::EventQueue() {
  for (int level = 0; level < kLevels; ++level) {
    for (int slot = 0; slot < kSlots; ++slot) {
      head_[level][slot] = kNil;
      tail_[level][slot] = kNil;
    }
  }
}

EventQueue::~EventQueue() {
  // Retire every pending event: closures release their captures, and any
  // handle that outlives the queue goes inert (generation bumped).
  for (int level = 0; level < kLevels; ++level) {
    for (int slot = 0; slot < kSlots; ++slot) {
      std::uint32_t idx = head_[level][slot];
      while (idx != kNil) {
        const std::uint32_t next = pool_->slots[idx].next;
        pool_->retire(idx);
        idx = next;
      }
    }
  }
  pool_->live = 0;
}

void EventQueue::place(std::uint32_t idx, std::uint64_t at) const {
  const std::uint64_t diff = at ^ cursor_;
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const int slot =
      static_cast<int>((at >> (level * kLevelBits)) & (kSlots - 1));
  detail::EventSlotPool::Slot& s = pool_->slots[idx];
  s.next = kNil;
  if (head_[level][slot] == kNil) {
    head_[level][slot] = idx;
  } else {
    pool_->slots[tail_[level][slot]].next = idx;
  }
  tail_[level][slot] = idx;
  bitmap_[level] |= std::uint64_t{1} << slot;
}

EventHandle EventQueue::schedule(SimTime at, EventFn fn) {
  const auto t = static_cast<std::uint64_t>(at.count());
  VDEP_ASSERT_MSG(at.count() >= 0 && t >= cursor_,
                  "cannot schedule before the last popped event time");
  const std::uint32_t idx = pool_->acquire();
  detail::EventSlotPool::Slot& s = pool_->slots[idx];
  s.at = at.count();
  s.fn = std::move(fn);
  place(idx, t);
  ++pool_->live;
  return EventHandle{pool_, idx, s.gen};
}

int EventQueue::lowest_level() const {
  for (int level = 0; level < kLevels; ++level) {
    if (bitmap_[level] != 0) return level;
  }
  VDEP_ASSERT_MSG(false, "event wheel empty");
  return -1;
}

void EventQueue::cascade(int level, int slot) const {
  // The cursor advances to the slot's base time. Legal: every pending event
  // is >= that base (this is the earliest occupied slot of the lowest
  // non-empty level), and cascades run only inside pop(), whose result pins
  // the schedule() floor at the popped time anyway. Events are re-filed in
  // list order, which preserves same-time FIFO.
  const int shift = level * kLevelBits;
  const int span_bits = shift + kLevelBits;
  const std::uint64_t span_mask =
      span_bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << span_bits) - 1);
  cursor_ = (cursor_ & ~span_mask) | (static_cast<std::uint64_t>(slot) << shift);

  std::uint32_t idx = head_[level][slot];
  head_[level][slot] = kNil;
  tail_[level][slot] = kNil;
  bitmap_[level] &= ~(std::uint64_t{1} << slot);
  while (idx != kNil) {
    const std::uint32_t next = pool_->slots[idx].next;
    if (pool_->slots[idx].cancelled) {
      pool_->retire(idx);
    } else {
      place(idx, static_cast<std::uint64_t>(pool_->slots[idx].at));
    }
    idx = next;
  }
}

SimTime EventQueue::next_time() const {
  VDEP_ASSERT(!empty());
  for (;;) {
    const int level = lowest_level();
    const int slot = std::countr_zero(bitmap_[level]);
    if (level == 0) {
      // Exact-time slot: the head is the earliest event; sweep cancelled
      // carcasses off the front as we go.
      const std::uint32_t idx = head_[0][slot];
      detail::EventSlotPool::Slot& s = pool_->slots[idx];
      if (!s.cancelled) return SimTime{s.at};
      head_[0][slot] = s.next;
      if (head_[0][slot] == kNil) {
        tail_[0][slot] = kNil;
        bitmap_[0] &= ~(std::uint64_t{1} << slot);
      }
      pool_->retire(idx);
      continue;
    }
    // Coarse slot: events inside span different times, so scan for the
    // minimum (sweeping cancelled ones out of the list). No cascade here —
    // next_time() must not advance the cursor, because callers may still
    // schedule between the last popped time and this slot's base.
    std::int64_t best = -1;
    std::uint32_t idx = head_[level][slot];
    std::uint32_t prev = kNil;
    while (idx != kNil) {
      detail::EventSlotPool::Slot& s = pool_->slots[idx];
      const std::uint32_t next = s.next;
      if (s.cancelled) {
        if (prev == kNil) {
          head_[level][slot] = next;
        } else {
          pool_->slots[prev].next = next;
        }
        if (next == kNil) tail_[level][slot] = prev;
        pool_->retire(idx);
      } else {
        if (best < 0 || s.at < best) best = s.at;
        prev = idx;
      }
      idx = next;
    }
    if (head_[level][slot] == kNil) {
      bitmap_[level] &= ~(std::uint64_t{1} << slot);
      continue;
    }
    return SimTime{best};
  }
}

EventQueue::Popped EventQueue::pop() {
  VDEP_ASSERT(!empty());
  for (;;) {
    const int level = lowest_level();
    const int slot = std::countr_zero(bitmap_[level]);
    if (level != 0) {
      cascade(level, slot);
      continue;
    }
    const std::uint32_t idx = head_[0][slot];
    detail::EventSlotPool::Slot& s = pool_->slots[idx];
    head_[0][slot] = s.next;
    if (head_[0][slot] == kNil) {
      tail_[0][slot] = kNil;
      bitmap_[0] &= ~(std::uint64_t{1} << slot);
    }
    if (s.cancelled) {
      pool_->retire(idx);
      continue;
    }
    cursor_ = static_cast<std::uint64_t>(s.at);
    Popped out{SimTime{s.at}, std::move(s.fn)};
    --pool_->live;
    // A popped event is no longer pending: its handle reports inactive, and a
    // late cancel() becomes a harmless no-op.
    pool_->retire(idx);
    return out;
  }
}

}  // namespace vdep::sim
