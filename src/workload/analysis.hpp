// Trace analysis: reuse (LRU stack) distances and miss-ratio curves.
//
// Mattson's classic observation: LRU's fault count for *every* cache size
// falls out of one pass over the trace — an access at stack distance d hits
// iff the cache holds more than d pages.  The profiler takes the
// stack-distance histogram from policies/mattson.hpp's one-pass scan
// (O(n log(n / 64)), mark bits plus a Fenwick tree over words); the resulting
// curve is the exact LRU miss-ratio curve, used as the fast path for
// per-core fault curves in partition search and by the utility controller's
// offline counterpart.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp {

/// Exact LRU stack-distance profile of one sequence.
class StackDistanceHistogram {
 public:
  /// Builds the histogram in one pass (O(n log(n / 64))).
  explicit StackDistanceHistogram(const RequestSequence& seq);

  /// Accesses at stack distance exactly `d` (0 = re-reference with nothing
  /// in between).
  [[nodiscard]] Count at(std::size_t d) const {
    return d + 1 < hist_.size() ? hist_[d + 1] : 0;
  }
  /// First-touch (cold) accesses — infinite stack distance.
  [[nodiscard]] Count cold() const noexcept { return hist_[0]; }
  /// Total accesses profiled (the k = 0 fault count: every access misses).
  [[nodiscard]] Count total() const noexcept { return faults_[0]; }
  /// Distinct pages in the sequence.
  [[nodiscard]] std::size_t distinct() const noexcept {
    return hist_.size() - 1;
  }

  /// Exact LRU faults with a cache of `k` pages: cold misses plus accesses
  /// at stack distance >= k.
  [[nodiscard]] Count lru_faults(std::size_t k) const;

  /// curve[k] = lru_faults(k) for k = 0..max_cache.
  [[nodiscard]] std::vector<Count> lru_curve(std::size_t max_cache) const;

 private:
  // stack_distance_histogram's output: hist_[0] = cold accesses,
  // hist_[d + 1] = accesses at stack distance d here.
  std::vector<Count> hist_;
  // lru_fault_curve_from_histogram(hist_, distinct()): faults at every k
  // up to the distinct-page count, past which only cold misses remain.
  std::vector<Count> faults_;
};

/// Exact LRU fault count for one sequence and one cache size (convenience
/// wrapper; build the histogram once if you need several sizes).
[[nodiscard]] Count lru_faults_via_stack_distance(const RequestSequence& seq,
                                                  std::size_t k);

}  // namespace mcp
