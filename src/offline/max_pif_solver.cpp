#include "offline/max_pif_solver.hpp"

#include <algorithm>
#include <limits>

#include "core/bits.hpp"
#include "core/error.hpp"

namespace mcp {

namespace {

/// Bounds vector enforcing the instance bounds on `subset` members and
/// effectively nothing on everyone else.
std::vector<Count> relaxed_bounds(const PifInstance& instance,
                                  std::uint32_t subset) {
  std::vector<Count> bounds(instance.bounds.size());
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    bounds[j] = ((subset >> j) & 1u)
                    ? instance.bounds[j]
                    : std::numeric_limits<Count>::max() / 2;
  }
  return bounds;
}

}  // namespace

MaxPifResult solve_max_pif(const PifInstance& instance,
                           const PifOptions& options) {
  instance.validate();
  const std::size_t p = instance.base.requests.num_cores();
  MCP_REQUIRE(p <= 20, "solve_max_pif: too many cores for subset search");

  MaxPifResult result;
  std::vector<std::uint32_t> infeasible;  // known-infeasible subsets

  // Subsets grouped by size, largest first; within a size, ascending.
  const std::uint32_t all = p == 32 ? ~0u : ((1u << p) - 1u);
  for (std::size_t size = p; size > 0; --size) {
    for (std::uint32_t subset = 1; subset <= all; ++subset) {
      if (popcount64(subset) != static_cast<int>(size)) continue;
      // Monotonicity: if a sub-subset already failed, this one fails too.
      const bool doomed =
          std::any_of(infeasible.begin(), infeasible.end(),
                      [subset](std::uint32_t bad) {
                        return (subset & bad) == bad;
                      });
      if (doomed) continue;

      PifInstance relaxed = instance;
      relaxed.bounds = relaxed_bounds(instance, subset);
      ++result.subsets_tried;
      if (solve_pif(relaxed, options).feasible) {
        result.max_satisfied = size;
        result.witness.clear();
        for (CoreId j = 0; j < p; ++j) {
          if ((subset >> j) & 1u) result.witness.push_back(j);
        }
        return result;
      }
      infeasible.push_back(subset);
    }
  }
  // Even singletons failed: zero sequences can be kept within bounds.
  result.max_satisfied = 0;
  return result;
}

}  // namespace mcp
