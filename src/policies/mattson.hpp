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
// The distances are counted with one mark bit per access position, set
// while that position holds its page's most recent access: the marks after
// a reuse's previous access are the distinct pages touched since.  Marks
// are counted per 64-bit word with a popcount, and across words with a
// Fenwick tree over the words behind the scan, so a sequence of length n
// costs O(n log(n / 64)), and a reuse whose previous access lies in the
// word being filled costs one popcount.  This is the engine behind the
// fast path of policy_fault_curves() for LRU (see partition_search.cpp)
// and behind mcpd's curve and partition answers;
// tests/reference_mattson.hpp keeps the position-Fenwick scan it replaced
// as an oracle.  Positions are 32-bit: a scanned sequence must hold fewer
// than 2^32 - 1 requests (ModelError otherwise).
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
/// d = 1..hist[0].  The vector holds exactly hist[0] + 1 buckets (its
/// capacity too), so a caller may keep it as the sequence's whole LRU
/// profile: lru_fault_curve is its suffix sum.
[[nodiscard]] std::vector<Count> stack_distance_histogram(
    const RequestSequence& seq);

/// The LRU fault curve f(0..max_k) that `hist`, a stack_distance_histogram,
/// encodes: f(k) = hist[0] + the reuses at distance > k.  Equals
/// lru_fault_curve(seq, max_k) for the histogram's sequence.
[[nodiscard]] std::vector<Count> lru_fault_curve_from_histogram(
    const std::vector<Count>& hist, std::size_t max_k);

/// All requests' stack distances in sequence order: 0 for a first (cold)
/// access, otherwise the number of distinct pages touched since the
/// previous access to the same page (inclusive — a repeat of the
/// immediately preceding request has distance 1).  Exposed for tests and
/// locality diagnostics.
[[nodiscard]] std::vector<std::size_t> stack_distances(
    const RequestSequence& seq);

}  // namespace mcp
