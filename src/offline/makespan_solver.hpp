// Optimal makespan solver — the bridge to Hassidim's model.
//
// The paper adopts total faults (FTF) as its objective but positions itself
// against Hassidim's makespan-minimization model; this solver computes the
// exact minimum makespan (completion time of the last request) within *our*
// model's rules — no request scheduling, only eviction choices — so the two
// objectives can be compared on the same instances (bench E15).
//
// Implementation: breadth-first search over timesteps on the same
// PackedTransitionSystem as Algorithms 1 and 2, states interned in one
// StateInterner and each layer kept as a list of distinct ids.  A terminal
// state reached at the start of step t finished its last service at t-1
// plus any residual fetch; the search stops once no future layer can beat
// the incumbent.
#pragma once

#include <cstddef>

#include "core/types.hpp"
#include "offline/instance.hpp"

namespace mcp {

struct MakespanOptions {
  VictimRule victim_rule = VictimRule::kAllPages;
  /// Abort (throw ModelError) if a layer exceeds this many states; 0 = off.
  std::size_t max_layer_width = 0;
};

struct MakespanResult {
  Time min_makespan = 0;
  std::size_t states_expanded = 0;
  std::size_t peak_layer_width = 0;
};

/// Exact minimum makespan over honest eviction schedules (disjoint inputs).
/// Throws InputError for an instance outside the packed encoding
/// (packed_space.hpp).
[[nodiscard]] MakespanResult solve_min_makespan(
    const OfflineInstance& instance, const MakespanOptions& options = {});

}  // namespace mcp
