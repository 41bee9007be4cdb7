// Exhaustive offline searches driven through the *simulator* — reference
// implementations that are deliberately independent of the
// PackedTransitionSystem used by the DP solvers, so the two can
// cross-validate each other.
//
// The search tree is over eviction decisions: a branch is fixed by the list
// of victims chosen at the faults that required one.  Each tree node is
// explored by re-running the simulator with the decision prefix and probing
// the candidate victims of the first undecided fault.  Exponential, for
// tiny instances only.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "offline/instance.hpp"

namespace mcp {

struct ExhaustiveFtfResult {
  Count min_faults = 0;
  std::vector<PageId> best_schedule;  ///< per-eviction victims (no
                                      ///< kInvalidPage placeholders)
  std::size_t simulator_runs = 0;
};

/// Minimum total faults over all honest eviction schedules, by exhaustive
/// search.  Throws ModelError after `max_runs` simulator runs (0 = no cap).
[[nodiscard]] ExhaustiveFtfResult exhaustive_ftf(const OfflineInstance& instance,
                                                 std::size_t max_runs = 0);

struct ExhaustivePifResult {
  bool feasible = false;
  std::size_t simulator_runs = 0;
};

/// Decides PIF over all honest eviction schedules by exhaustive search with
/// bound pruning (a branch dies as soon as any core exceeds its bound
/// before the deadline).
[[nodiscard]] ExhaustivePifResult exhaustive_pif(const PifInstance& instance,
                                                 std::size_t max_runs = 0);

}  // namespace mcp
