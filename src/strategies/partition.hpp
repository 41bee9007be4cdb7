// Cache partitions: the paper's Pi(K, p) space.
//
// A partition assigns k_j cells of the K-cell cache to core j with
// sum_j k_j = K; the paper restricts attention to partitions giving at
// least one cell to every active core.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "core/types.hpp"

namespace mcp {

/// sizes[j] = number of cells assigned to core j.
using Partition = std::vector<std::size_t>;

/// Throws ModelError unless `sizes` is a valid partition of `cache_size`
/// over `num_cores` cores with each part >= `min_per_core`.
void validate_partition(const Partition& sizes, std::size_t cache_size,
                        std::size_t num_cores, std::size_t min_per_core = 1);

/// K split as evenly as possible: floor(K/p) each, the first K mod p cores
/// get one extra cell.
[[nodiscard]] Partition even_partition(std::size_t cache_size, std::size_t num_cores);

/// All partitions of `cache_size` into `num_cores` parts, each part at
/// least `min_per_core` (the paper's Pi(K,p) with the >=1 restriction).
/// Ordered lexicographically.  Size is C(K - p(m-1) ... ) — use only for
/// small K, p; see count_partitions.
[[nodiscard]] std::vector<Partition> enumerate_partitions(
    std::size_t cache_size, std::size_t num_cores, std::size_t min_per_core = 1);

/// |Pi(K,p)| with the min_per_core restriction = C(K - p*min + p - 1, p - 1),
/// exact whenever it fits in size_t and SIZE_MAX (saturated) otherwise.
[[nodiscard]] std::size_t count_partitions(std::size_t cache_size,
                                           std::size_t num_cores,
                                           std::size_t min_per_core = 1);

/// "[4,2,2]" — used in strategy display names.
[[nodiscard]] std::string partition_to_string(const Partition& sizes);

/// Which part holds each resident page: the page-indexed owner table of a
/// partitioned strategy.  One table per strategy (its parts' policies keep
/// storage sized by their cells).  The first page it records sizes it to
/// the engine's page bound (CacheView::page_bound), so a run over a
/// materialized set sizes it once, in its first step, without a second
/// pass over the requests; a streamed page past its end grows it by
/// doubling.
class PageOwners {
 public:
  /// Forgets every owner.
  void reset() noexcept { owner_.clear(); }
  /// The part holding `page`, or kInvalidCore.
  [[nodiscard]] CoreId operator[](PageId page) const noexcept {
    return page < owner_.size() ? owner_[page] : kInvalidCore;
  }
  /// `part` now holds `page`; `cache` is the view of the run.
  void set(PageId page, CoreId part, const CacheView& cache) {
    if (page >= owner_.size()) {
      owner_.resize(std::max({std::size_t{page} + 1, 2 * owner_.size(),
                              cache.page_bound()}),
                    kInvalidCore);
    }
    owner_[page] = part;
  }
  /// `page` (which has an owner) left the cache.
  void clear(PageId page) noexcept { owner_[page] = kInvalidCore; }

 private:
  std::vector<CoreId> owner_;
};

}  // namespace mcp
