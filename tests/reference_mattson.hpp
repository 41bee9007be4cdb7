// Reference stack-distance scan, kept for differential testing.
//
// This is the scan policies/mattson.cpp's bit-marked kernel replaced: a
// Fenwick tree over every 1-based access position, marking each page's
// most recent access, with two prefix walks, an unmark and a mark per
// request.  Its last-access map is a hash map instead of a page-indexed
// array, so sparse page ids cost memory per distinct page, not per id.
// test_mattson.cpp holds stack_distances and stack_distance_histogram to
// it request for request; single_core_policy_faults (policies/belady.hpp)
// stays the per-k oracle for the curves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp::testing {

namespace mattson_oracle {

// Fenwick tree over 1-based access positions; tree[i] counts positions in
// i's range that still hold some page's most recent access.
class PositionTree {
 public:
  explicit PositionTree(std::size_t n) : tree_(n + 1, 0), n_(n) {}

  void mark(std::size_t pos) {
    for (; pos <= n_; pos += lowbit(pos)) ++tree_[pos];
  }
  void unmark(std::size_t pos) {
    for (; pos <= n_; pos += lowbit(pos)) --tree_[pos];
  }
  /// Number of marked positions in [1, pos].
  [[nodiscard]] std::size_t prefix(std::size_t pos) const {
    std::size_t sum = 0;
    for (; pos > 0; pos -= lowbit(pos)) sum += tree_[pos];
    return sum;
  }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

  std::vector<std::uint32_t> tree_;
  std::size_t n_;
};

}  // namespace mattson_oracle

/// Every request's stack distance: 0 for a first access, else the distinct
/// pages touched since the page's previous access, itself included.
[[nodiscard]] inline std::vector<std::size_t> reference_stack_distances(
    const RequestSequence& seq) {
  const std::size_t n = seq.size();
  mattson_oracle::PositionTree marks(n);
  std::unordered_map<PageId, std::size_t> last_pos;  // 1-based positions
  std::vector<std::size_t> out;
  out.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    const PageId page = seq[i - 1];
    const auto it = last_pos.find(page);
    if (it == last_pos.end()) {
      out.push_back(0);
      last_pos.emplace(page, i);
    } else {
      // Still-marked positions strictly between the previous access and
      // i, plus the page itself.
      const std::size_t prev = it->second;
      out.push_back(marks.prefix(i - 1) - marks.prefix(prev) + 1);
      marks.unmark(prev);
      it->second = i;
    }
    marks.mark(i);
  }
  return out;
}

/// hist[0] = first accesses (the distinct-page count), hist[d] = reuses at
/// stack distance d, for d = 1..hist[0].
[[nodiscard]] inline std::vector<Count> reference_stack_distance_histogram(
    const RequestSequence& seq) {
  const std::vector<std::size_t> distances = reference_stack_distances(seq);
  Count cold = 0;
  for (const std::size_t d : distances) cold += d == 0 ? 1 : 0;
  std::vector<Count> hist(cold + 1, 0);
  for (const std::size_t d : distances) ++hist[d];
  return hist;
}

}  // namespace mcp::testing
