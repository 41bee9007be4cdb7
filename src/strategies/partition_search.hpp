// Offline optimal static partition search: the paper's sP^OPT_A and
// sP^OPT_OPT strategies ("the partition ... determined offline so as to
// minimize the total number of faults").
//
// For disjoint inputs, what happens inside part j of a static partition
// depends only on R_j and k_j — fault delays shift timing, never one core's
// request order — so sP^B_A faults decompose as sum_j F_A(R_j, k_j).  The
// search therefore (1) builds per-core fault curves F(.)(R_j, k) for
// k = 0..K with fast single-core runs, then (2) minimizes the sum over the
// partition simplex with an O(p K^2) dynamic program.  An exhaustive
// simulate-every-partition fallback covers non-disjoint inputs and doubles
// as the reference in tests.
//
// Timing decomposes too: core j issues each request and finishes at the
// same steps as R_j alone on k_j cells, and the step loop visits exactly
// the steps at which some core acts (it skips a step only while every live
// core waits on its own fetch).  So sP^B_A's sim_steps is the size of the
// union of its cores' acting steps — issue times plus the finishing step —
// and its end_time the latest core's finishing step.  SweepRunner::run_jobs
// composes whole RunStats this way.
#pragma once

#include <cstddef>
#include <vector>

#include "core/request.hpp"
#include "core/strategy.hpp"
#include "policies/eviction_policy.hpp"
#include "strategies/partition.hpp"

namespace mcp {

/// curves[j][k] = faults of core j's sequence alone with k cells (k = 0..K).
using FaultCurves = std::vector<std::vector<Count>>;

/// Per-core Belady (optimal) fault curves — the building block of sP^OPT_OPT.
[[nodiscard]] FaultCurves belady_fault_curves(const RequestSet& requests,
                                              std::size_t cache_size);

/// Per-core fault curves for the online policy from `factory` (sP^OPT_A).
[[nodiscard]] FaultCurves policy_fault_curves(const RequestSet& requests,
                                              std::size_t cache_size,
                                              const PolicyFactory& factory);

struct PartitionSearchResult {
  Partition partition;  ///< A minimizing partition (ties: lexicographically first).
  Count faults = 0;     ///< Its total faults.
};

/// min over partitions (each part >= min_per_core) of sum_j curves[j][k_j].
/// Exact for disjoint inputs by the decomposition argument above.
[[nodiscard]] PartitionSearchResult optimal_partition_from_curves(
    const FaultCurves& curves, std::size_t cache_size,
    std::size_t min_per_core = 1);

/// sP^OPT_OPT for disjoint inputs: optimal partition with per-part Belady.
[[nodiscard]] PartitionSearchResult optimal_partition_opt(
    const RequestSet& requests, std::size_t cache_size);

/// sP^OPT_A for disjoint inputs: optimal partition for the given policy.
[[nodiscard]] PartitionSearchResult optimal_partition_for_policy(
    const RequestSet& requests, std::size_t cache_size,
    const PolicyFactory& factory);

/// Reference search: simulate sP^B_A under the full multicore model for
/// every B in Pi(K,p) and keep the best.  Exponential in p; also correct
/// for non-disjoint inputs.
[[nodiscard]] PartitionSearchResult optimal_partition_by_simulation(
    const SimConfig& config, const RequestSet& requests,
    const PolicyFactory& factory, std::size_t min_per_core = 1);

}  // namespace mcp
