// Empirical competitive-ratio measurement.
//
// The paper's closing discussion asks what online multicore paging
// strategies should be compared against; this harness measures, on batches
// of tiny instances where Algorithm 1 can compute the true optimum, the
// distribution of strategy(R) / OPT(R).  It cannot prove bounds, but it
// makes the theory's qualitative picture quantitative: shared FITF hovers
// near 1 yet exceeds it (non-optimality, Lemma 4); LRU's tail is heavier;
// and adversarial families push ratios far beyond what random inputs show.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/batch_state.hpp"
#include "core/strategy.hpp"
#include "offline/instance.hpp"

namespace mcp {

/// Produces a fresh strategy per trial (strategies are stateful).
using StrategyFactory = std::function<std::unique_ptr<CacheStrategy>()>;
/// Produces the instance for a given trial index (deterministic please).
using InstanceGenerator = std::function<OfflineInstance(std::size_t trial)>;

struct CompetitiveReport {
  std::size_t samples = 0;
  double max_ratio = 0.0;
  double mean_ratio = 0.0;
  /// Instances on which the strategy exactly met the optimum.
  std::size_t optimal_hits = 0;
  /// Trial index attaining max_ratio (for reproduction).
  std::size_t worst_trial = 0;
};

/// Runs `trials` instances, solving each exactly with Algorithm 1 and
/// simulating `strategy` on it.  Instances must stay tiny (the exact solver
/// is exponential in K and p).  The trials are independent cells swept on
/// the shared thread pool, so both callables may be invoked concurrently:
/// they must be pure functions of their arguments (no shared mutable
/// state).  The report is bit-identical for any worker count.
[[nodiscard]] CompetitiveReport measure_competitive_ratio(
    const StrategyFactory& strategy, const InstanceGenerator& generator,
    std::size_t trials);

/// Batched variant: the strategy under test is a BatchStrategySpec, so the
/// per-trial simulations run on the batch kernel (SweepRunner::run_jobs)
/// after the generate + exact-solve phase sweeps on the pool.
/// Bit-identical report to the StrategyFactory overload with the matching
/// strategy object (same trial order in every reduction).  A
/// static-partition spec requires every generated instance to match its
/// core count and cache size.
[[nodiscard]] CompetitiveReport measure_competitive_ratio(
    const BatchStrategySpec& strategy, const InstanceGenerator& generator,
    std::size_t trials);

}  // namespace mcp
