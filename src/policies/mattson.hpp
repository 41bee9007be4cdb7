// Single-pass LRU fault curves via Mattson's stack-distance algorithm.
//
// LRU has the inclusion (stack) property: the content of an LRU cache of k
// cells is always a subset of the content of an LRU cache of k+1 cells on
// the same sequence.  A request therefore hits at capacity k exactly when
// its *stack distance* — the number of distinct pages referenced since the
// previous request to the same page, inclusive — is at most k.  One pass
// that computes every request's stack distance yields the whole fault curve
// f(k) for k = 0..K at once, instead of K independent simulations.
//
// The distances are counted with a Fenwick tree over access positions
// (marking each page's most recent access), giving O(n log n) total for a
// sequence of length n — the engine behind the fast path of
// policy_fault_curves() for LRU (see partition_search.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp {

/// Full LRU fault curve of `seq` served alone: returns `curve` with
/// curve[k] = faults of single-core LRU at capacity k, for k = 0..max_k.
/// curve[0] = seq.size() (the k = 0 limit, matching
/// single_core_policy_faults); for k >= the number of distinct pages the
/// value is the cold-miss count.  Agrees with
/// single_core_policy_faults(seq, k, LRU) for every k — the per-k run is
/// kept as the test oracle.  curve[k] does not depend on max_k, so a curve
/// is a prefix of the curve at any larger max_k.
[[nodiscard]] std::vector<Count> lru_fault_curve(const RequestSequence& seq,
                                                 std::size_t max_k);

/// Per-core LRU fault curves for a whole request set: curves[j] is
/// lru_fault_curve(requests.sequence(j), max_k), the cores scanned in
/// chunks of 8 per task on the shared pool.
[[nodiscard]] std::vector<std::vector<Count>> lru_fault_curve_batch(
    const RequestSet& requests, std::size_t max_k);

/// Histogram of stack_distances(seq), counted during the scan without the
/// per-request vector: hist[0] = cold (first) accesses, which is also the
/// number of distinct pages, and hist[d] = reuses at stack distance d for
/// d = 1..hist[0].  lru_fault_curve is its suffix sum.
[[nodiscard]] std::vector<Count> stack_distance_histogram(
    const RequestSequence& seq);

/// All requests' stack distances in sequence order: 0 for a first (cold)
/// access, otherwise the number of distinct pages touched since the
/// previous access to the same page (inclusive — a repeat of the
/// immediately preceding request has distance 1).  Exposed for tests and
/// locality diagnostics.
[[nodiscard]] std::vector<std::size_t> stack_distances(
    const RequestSequence& seq);

}  // namespace mcp
