#include "chaos/shrink.hpp"

#include <algorithm>
#include <atomic>
#include <optional>

#include "chaos/fleet.hpp"
#include "util/assert.hpp"

namespace vdep::chaos {

namespace {

net::FaultPlan plan_from(const std::vector<net::FaultAction>& actions) {
  net::FaultPlan plan;
  for (const auto& a : actions) plan.add(a);
  return plan;
}

SimTime snap_down(SimTime t, SimTime grid) {
  const auto g = grid.count();
  return SimTime{(t.count() / g) * g};
}

}  // namespace

ShrinkResult shrink_schedule(const TrialConfig& config, const net::FaultPlan& failing,
                             const FailPredicate& still_fails, int workers) {
  const FailPredicate fails_pred =
      still_fails ? still_fails
                  : [](const TrialResult& r) { return !r.pass(); };

  ShrinkResult out;
  auto probe = [&](const net::FaultPlan& candidate) {
    ++out.probes;
    TrialResult r = run_trial(config, candidate);
    const bool failed = fails_pred(r);
    if (failed) {
      out.minimal = candidate;
      out.reproduction = std::move(r);
    }
    return failed;
  };

  const bool reproduced = probe(failing);
  VDEP_ASSERT_MSG(reproduced, "shrink_schedule needs a failing schedule");

  // Degenerate witness first: if the bug fires with no faults at all, the
  // schedule was never the trigger.
  if (!failing.empty() && probe(net::FaultPlan{})) {
    return out;
  }

  // Phase 1 — ddmin on the action list: repeatedly try dropping one of n
  // chunks; on success restart at coarse granularity, otherwise refine.
  //
  // Each round runs its candidates through the fleet and commits the
  // lowest-indexed failure: serially the scan stops there; with workers the
  // whole round runs at once and reaches the same commit.
  std::vector<net::FaultAction> actions = out.minimal.actions();
  std::size_t n = 2;
  while (actions.size() >= 2) {
    const std::size_t chunk = std::max<std::size_t>(1, actions.size() / n);

    std::vector<std::vector<net::FaultAction>> complements;
    for (std::size_t start = 0; start < actions.size(); start += chunk) {
      std::vector<net::FaultAction> complement;
      for (std::size_t i = 0; i < actions.size(); ++i) {
        if (i < start || i >= start + chunk) complement.push_back(actions[i]);
      }
      if (complement.size() < actions.size()) complements.push_back(std::move(complement));
    }

    std::atomic<int> round_probes{0};
    std::optional<std::size_t> reduced;
    run_ordered(
        static_cast<int>(complements.size()), workers,
        [&](int k) {
          round_probes.fetch_add(1, std::memory_order_relaxed);
          return run_trial(config, plan_from(complements[static_cast<std::size_t>(k)]));
        },
        [&](int k, TrialResult result) {
          if (!fails_pred(result)) return true;
          reduced = static_cast<std::size_t>(k);
          out.reproduction = std::move(result);
          return false;
        });
    out.probes += round_probes.load();

    if (reduced) {
      actions = std::move(complements[*reduced]);
      out.minimal = plan_from(actions);
      n = std::max<std::size_t>(2, n - 1);
    } else {
      if (n >= actions.size()) break;
      n = std::min(actions.size(), n * 2);
    }
  }

  // Phase 2 — retiming: normalize each surviving action's times onto a
  // coarse grid (and pull windows tight), keeping any change that still
  // fails. Makes reproducers read like hand-written schedules.
  const SimTime grid = msec(50);
  for (std::size_t i = 0; i < actions.size(); ++i) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      net::FaultAction candidate = actions[i];
      if (attempt == 0) {
        // Snap to the grid.
        candidate.at = std::max(snap_down(candidate.at, grid), msec(50));
        if (candidate.windowed()) {
          candidate.until = std::max(snap_down(candidate.until, grid),
                                     candidate.at + grid);
        } else if (candidate.until != kTimeZero) {
          candidate.until = candidate.at;
        }
      } else {
        // Pull the strike earlier by half.
        candidate.at = std::max(snap_down(SimTime{candidate.at.count() / 2}, grid),
                                msec(50));
        if (candidate.windowed()) {
          candidate.until = std::max(snap_down(candidate.until, grid),
                                     candidate.at + grid);
        }
      }
      if (candidate == actions[i]) continue;
      std::vector<net::FaultAction> retimed = actions;
      retimed[i] = candidate;
      if (probe(plan_from(retimed))) actions = std::move(retimed);
    }
  }

  out.minimal = plan_from(actions);
  return out;
}

}  // namespace vdep::chaos
