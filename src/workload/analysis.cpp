#include "workload/analysis.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "policies/mattson.hpp"

namespace mcp {

StackDistanceHistogram::StackDistanceHistogram(const RequestSequence& seq) {
  total_ = seq.size();
  // The single-pass Fenwick kernel lives in policies/mattson.hpp (it is
  // also the LRU fast path of partition search); this class is the
  // histogram view of its output, one bucket per distinct page.  Note the
  // off-by-one between the two conventions: mattson's distance counts the
  // re-referenced page itself (minimum 1), the histogram indexes by pages
  // *in between* (minimum 0).
  const std::vector<Count> hist = stack_distance_histogram(seq);
  cold_ = hist[0];
  counts_.assign(hist.begin() + 1, hist.end());
  // Suffix sums: suffix_[d] = accesses at distance >= d.
  suffix_.assign(counts_.size() + 1, 0);
  for (std::size_t d = counts_.size(); d-- > 0;) {
    suffix_[d] = suffix_[d + 1] + counts_[d];
  }
}

Count StackDistanceHistogram::lru_faults(std::size_t k) const {
  // An access at stack distance d hits iff k > d.
  const std::size_t idx = std::min(k, suffix_.size() - 1);
  return cold_ + suffix_[idx];
}

std::vector<Count> StackDistanceHistogram::lru_curve(std::size_t max_cache) const {
  std::vector<Count> curve(max_cache + 1);
  for (std::size_t k = 0; k <= max_cache; ++k) curve[k] = lru_faults(k);
  return curve;
}

Count lru_faults_via_stack_distance(const RequestSequence& seq, std::size_t k) {
  return StackDistanceHistogram(seq).lru_faults(k);
}

}  // namespace mcp
