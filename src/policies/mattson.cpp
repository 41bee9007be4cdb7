#include "policies/mattson.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "core/sentry.hpp"

namespace mcp {

namespace {

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

/// 1 + the largest page id in `seq` (1 for an empty sequence): the size of
/// a page-indexed map, and a bound on the distinct-page count.
std::size_t page_bound(const RequestSequence& seq) {
  PageId max_page = 0;
  for (const PageId page : seq) max_page = std::max(max_page, page);
  return std::size_t{max_page} + 1;
}

// Single pass over `seq`, calling on_cold() for first accesses and
// on_reuse(d) with the stack distance d >= 1 for repeats.  O(n log n).
// `bound` is page_bound(seq).
template <typename OnCold, typename OnReuse>
void scan_stack_distances(const RequestSequence& seq, std::size_t bound,
                          OnCold on_cold, OnReuse on_reuse) {
  const std::size_t n = seq.size();
  PositionTree marks(n);
  // page -> 1-based position of its last access, 0 = unseen.  Presized from
  // the page bound, so the scan below never grows it — which lets the
  // allocation sentry hold the kernel to the §8 allocation-free claim.  The
  // callbacks inherit the guard: both callers append into exactly-reserved
  // storage or bump counters.
  std::vector<std::size_t> last_pos(bound, 0);
  AllocGuard guard("mattson stack-distance scan");
  for (std::size_t i = 1; i <= n; ++i) {
    const PageId page = seq[i - 1];
    const std::size_t prev = last_pos[page];
    if (prev == 0) {
      on_cold();
    } else {
      // Distinct pages since the previous access to `page`: the still-marked
      // positions strictly between prev and i, plus `page` itself.
      on_reuse(marks.prefix(i - 1) - marks.prefix(prev) + 1);
      marks.unmark(prev);
    }
    marks.mark(i);
    last_pos[page] = i;
  }
}

/// Cores per pool task in lru_fault_curve_batch: enough to amortize the
/// dispatch, few enough that large-p sets still spread across workers.
constexpr std::size_t kMattsonChunkCores = 8;

}  // namespace

std::vector<Count> lru_fault_curve(const RequestSequence& seq,
                                   std::size_t max_k) {
  const std::vector<Count> hist = stack_distance_histogram(seq);
  // f(k) = cold misses + reuses with distance > k; suffix-sum the histogram.
  // From k = the distinct-page count (its last bucket) on, only the cold
  // misses remain.
  std::vector<Count> curve(max_k + 1, hist[0]);
  Count beyond = 0;
  for (std::size_t k = hist.size() - 1; k-- > 0;) {
    beyond += hist[k + 1];
    if (k <= max_k) curve[k] = hist[0] + beyond;
  }
  // k = 0 limit: every request misses (cold + every reuse).
  MCP_ASSERT(curve[0] == seq.size());
  return curve;
}

std::vector<std::vector<Count>> lru_fault_curve_batch(
    const RequestSet& requests, std::size_t max_k) {
  const std::size_t p = requests.num_cores();
  std::vector<std::vector<Count>> curves(p);
  const std::size_t chunks =
      (p + kMattsonChunkCores - 1) / kMattsonChunkCores;
  ThreadPool::global().run_indexed(chunks, [&](std::size_t c) {
    const std::size_t end = std::min(p, (c + 1) * kMattsonChunkCores);
    for (std::size_t j = c * kMattsonChunkCores; j < end; ++j) {
      curves[j] = lru_fault_curve(requests.sequence(static_cast<CoreId>(j)),
                                  max_k);
    }
  });
  return curves;
}

std::vector<Count> stack_distance_histogram(const RequestSequence& seq) {
  // A distance never exceeds the distinct-page count, which is the cold
  // count and at most min(n, page bound): size for the bound, then trim
  // the empty tail past hist[cold].
  const std::size_t bound = page_bound(seq);
  std::vector<Count> hist(std::min(seq.size(), bound) + 1, 0);
  scan_stack_distances(
      seq, bound, [&hist] { ++hist[0]; },
      [&hist](std::size_t d) { ++hist[d]; });
  hist.resize(hist[0] + 1);
  return hist;
}

std::vector<std::size_t> stack_distances(const RequestSequence& seq) {
  std::vector<std::size_t> out;
  out.reserve(seq.size());
  scan_stack_distances(
      seq, page_bound(seq), [&out] { out.push_back(0); },
      [&out](std::size_t d) { out.push_back(d); });
  return out;
}

}  // namespace mcp
