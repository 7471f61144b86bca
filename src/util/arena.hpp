// An allocation-recycling helper for the hot paths: a string interner for
// the tracer's repeated span labels.
//
// It follows the slot-pool idiom used across the codebase (see
// sim::detail::EventSlotPool): ownership stays in one arena, the hot path
// hands out references, and the steady state performs no allocation. It is
// not thread-safe, and need not be: every instance is owned by a single
// kernel's object graph (the tracer), and a kernel is confined to one
// thread — the parallel campaign fleet gives each trial its own kernel
// rather than sharing these across threads.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <string_view>

namespace vdep {

// Deduplicating store of immutable strings with stable addresses. Span
// names, categories and process labels repeat endlessly ("gcs.deliver",
// "replica0@srv0", ...); interning them turns three string allocations per
// span record into three pointer-sized views after warmup.
class StringInterner {
 public:
  std::string_view intern(std::string_view s) {
    auto it = strings_.find(s);
    if (it == strings_.end()) it = strings_.emplace(s).first;
    return *it;
  }

  [[nodiscard]] std::size_t size() const { return strings_.size(); }

 private:
  // Node-based container: element addresses are stable for the interner's
  // lifetime, so returned views never dangle. Transparent comparator lets
  // lookups run on the string_view without constructing a std::string.
  std::set<std::string, std::less<>> strings_;
};

}  // namespace vdep
