// Deterministic simulation-time tracer: RAII spans, a propagated "current
// context", and an append-only span table that exporters render.
//
// Design constraints, in order:
//  - Compiled in, off by default. The disabled hot path is a single branch:
//    no allocation, no clock read, no string construction.
//  - Deterministic. Span and trace ids are sequential per tracer (one tracer
//    per sim::Kernel, so per experiment); timestamps are SimTime. Two runs
//    with the same seed produce byte-identical exports.
//  - Causal across async hops. Work in this codebase is deferred through CPU
//    queues and the network; callers capture `current()` (or a span's
//    context()) synchronously and re-establish it inside the callback with a
//    Scope. Wire messages carry a TraceContext explicitly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace_context.hpp"
#include "util/arena.hpp"
#include "util/time.hpp"

namespace vdep::obs {

class Tracer;

// Move-only RAII handle on an open span. A default-constructed (or disabled-
// tracer) Span is inert: every member is a no-op. The span ends at end() or
// destruction, whichever comes first, stamped with the tracer's clock.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
  ~Span() { end(); }

  Span(Span&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)), index_(other.index_) {}
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = std::exchange(other.tracer_, nullptr);
      index_ = other.index_;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

  // Context that makes children of this span (invalid if inert).
  [[nodiscard]] TraceContext context() const;

  // Attaches a key=value annotation (threshold values, cache hit/miss, ...).
  void note(std::string_view key, std::string_view value);

  void end();

 private:
  Tracer* tracer_ = nullptr;
  std::size_t index_ = 0;
};

class Tracer {
 public:
  using Clock = std::function<SimTime()>;

  explicit Tracer(Clock clock, std::size_t capacity = kDefaultCapacity)
      : clock_(std::move(clock)), capacity_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Starts a span. An invalid `parent` starts a new trace (fresh trace id);
  // a valid one attaches the span to that trace under that parent span.
  // Returns an inert Span when disabled — the check is this branch only.
  [[nodiscard]] Span start_span(std::string_view name, std::string_view category,
                                std::string_view proc,
                                TraceContext parent = TraceContext{}) {
    if (!enabled_) return Span{};
    return start_span_slow(name, category, proc, parent);
  }

  // Like start_span with the current context as parent.
  [[nodiscard]] Span start_child(std::string_view name, std::string_view category,
                                 std::string_view proc) {
    if (!enabled_) return Span{};
    return start_span_slow(name, category, proc, current_);
  }

  // The context propagated to work started "now" (set via Scope).
  [[nodiscard]] TraceContext current() const { return current_; }

  // RAII save/set/restore of the current context across a callback body.
  class Scope {
   public:
    Scope(Tracer& tracer, TraceContext ctx) : tracer_(&tracer) {
      if (!tracer_->enabled()) {
        tracer_ = nullptr;
        return;
      }
      saved_ = tracer_->current_;
      tracer_->current_ = ctx;
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->current_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    TraceContext saved_;
  };

  struct SpanRecord {
    std::uint64_t trace = 0;
    std::uint64_t id = 0;      // == table index + 1
    std::uint64_t parent = 0;  // 0 = root
    // Interned in the tracer's arena (labels repeat endlessly, so recording
    // a span allocates nothing for them after warmup); valid for the
    // tracer's lifetime, including across clear().
    std::string_view name;
    std::string_view category;
    std::string_view proc;  // process/host label ("replica0@srv0")
    SimTime start = kTimeZero;
    SimTime end = kTimeZero;
    bool open = true;
    std::vector<std::pair<std::string, std::string>> notes;
  };

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t spans_recorded() const { return spans_.size(); }
  // Spans refused because the table hit capacity (flight recorder is full).
  [[nodiscard]] std::uint64_t spans_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t traces_started() const { return next_trace_; }

  void clear() {
    spans_.clear();
    dropped_ = 0;
    next_trace_ = 0;
    current_ = TraceContext{};
  }

  static constexpr std::size_t kDefaultCapacity = 1 << 20;

 private:
  friend class Span;

  [[nodiscard]] Span start_span_slow(std::string_view name, std::string_view category,
                                     std::string_view proc, TraceContext parent);

  void end_span(std::size_t index);
  void note_span(std::size_t index, std::string_view key, std::string_view value);
  [[nodiscard]] TraceContext span_context(std::size_t index) const {
    const SpanRecord& rec = spans_[index];
    return TraceContext{rec.trace, rec.id};
  }

  Clock clock_;
  std::size_t capacity_;
  bool enabled_ = false;
  StringInterner interner_;  // backs SpanRecord name/category/proc
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_trace_ = 0;
  TraceContext current_;
};

inline TraceContext Span::context() const {
  if (tracer_ == nullptr) return TraceContext{};
  return tracer_->span_context(index_);
}

inline void Span::note(std::string_view key, std::string_view value) {
  if (tracer_ != nullptr) tracer_->note_span(index_, key, value);
}

inline void Span::end() {
  if (tracer_ != nullptr) {
    tracer_->end_span(index_);
    tracer_ = nullptr;
  }
}

}  // namespace vdep::obs
