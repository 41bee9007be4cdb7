#include "workload/analysis.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "policies/mattson.hpp"

namespace mcp {

// The single-pass bit-marked scan lives in policies/mattson.hpp (it is also
// the LRU fast path of partition search); this class is the histogram view
// of its output, one bucket per distinct page, and its curves are
// lru_fault_curve_from_histogram's.  Note the off-by-one between the two
// distance conventions: mattson's counts the re-referenced page itself
// (minimum 1), the histogram indexes by pages *in between* (minimum 0).
// Fault counts agree: an access hits a cache of k pages iff mattson's
// distance is <= k, i.e. iff k > d here.
StackDistanceHistogram::StackDistanceHistogram(const RequestSequence& seq)
    : hist_(stack_distance_histogram(seq)),
      faults_(lru_fault_curve_from_histogram(hist_, hist_.size() - 1)) {}

Count StackDistanceHistogram::lru_faults(std::size_t k) const {
  return faults_[std::min(k, faults_.size() - 1)];
}

std::vector<Count> StackDistanceHistogram::lru_curve(std::size_t max_cache) const {
  return lru_fault_curve_from_histogram(hist_, max_cache);
}

Count lru_faults_via_stack_distance(const RequestSequence& seq, std::size_t k) {
  return StackDistanceHistogram(seq).lru_faults(k);
}

}  // namespace mcp
