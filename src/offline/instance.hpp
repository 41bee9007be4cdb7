// Offline problem instances (Section 5 of the paper).
//
// The offline algorithms assume a *disjoint* request set — the paper's
// Theorems 4 and 5 (honesty and FITF-within-a-sequence are WLOG for the
// optimum) are stated for disjoint sequences.  The searches rely on
// honesty.  The Theorem-5 restriction is an option (VictimRule), not a
// reduction: in this model it matched the optimum on E11's sample, and
// loses one fault on 24 of 308,025 instances at p = 2 with at most 6
// requests per core.
#pragma once

#include <cstddef>
#include <vector>

#include "core/request.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace mcp {

/// Which victims a fault may choose from in the offline searches.
enum class VictimRule {
  kAllPages,          ///< any present (non-reserved) page — the full optimum
  kFitfPerSequence,   ///< per Theorem 5: for each core c, only the page of
                      ///< R_c whose next request is furthest in R_c
};

/// Shared data of FTF / PIF instances.
struct OfflineInstance {
  RequestSet requests;
  std::size_t cache_size = 0;  ///< K
  Time tau = 0;                ///< fault penalty

  /// Throws ModelError unless the instance is well-formed (disjoint, K>0,
  /// at least one core).
  void validate() const;

  [[nodiscard]] SimConfig sim_config() const {
    SimConfig cfg;
    cfg.cache_size = cache_size;
    cfg.fault_penalty = tau;
    return cfg;
  }
};

/// A PARTIAL-INDIVIDUAL-FAULTS instance (Definition 2): can `base.requests`
/// be served so that each core i has faulted at most `bounds[i]` times on
/// requests issued before `deadline`?
struct PifInstance {
  OfflineInstance base;
  Time deadline = 0;
  std::vector<Count> bounds;

  void validate() const;
};

}  // namespace mcp
