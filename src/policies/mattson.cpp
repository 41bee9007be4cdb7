#include "policies/mattson.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/sentry.hpp"
#include "core/thread_pool.hpp"

namespace mcp {

namespace {

/// 1 + the largest page id in `seq` (1 for an empty sequence): the size of
/// a page-indexed map, and a bound on the distinct-page count.
std::size_t page_bound(const RequestSequence& seq) {
  PageId max_page = 0;
  for (const PageId page : seq) max_page = std::max(max_page, page);
  return std::size_t{max_page} + 1;
}

std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

// Single pass over `seq`, calling on_cold() for first accesses and
// on_reuse(d) with the stack distance d >= 1 for repeats.  `bound` is
// page_bound(seq).
//
// Bit i of marks[i / 64] is set while access position i holds its page's
// most recent access, so the marks after a reuse's previous access q count
// the distinct pages touched since.  The word the scan is filling lives in
// a register; each word behind it has its mark count in `tree`, a Fenwick
// tree over word indices.  A reuse whose previous access is in the filling
// word reads its distance from one popcount; any other, with `distinct`
// marks set in all, reads
//
//   d = 1 + distinct − (marks in words 0..q/64) + popcount(word q/64 above q)
//
// from one prefix walk and one update walk over a tree 64× smaller than
// the sequence.
template <typename OnCold, typename OnReuse>
void scan_stack_distances(const RequestSequence& seq, std::size_t bound,
                          OnCold on_cold, OnReuse on_reuse) {
  const std::size_t n = seq.size();
  MCP_REQUIRE(n < std::numeric_limits<std::uint32_t>::max(),
              "mattson: a sequence must have fewer than 2^32 - 1 requests");
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> marks(words, 0);
  std::vector<std::uint32_t> tree(words + 1, 0);  // 1-based
  // page -> 1 + position of its last access, 0 = unseen.  Every array is
  // presized, so the scan below never grows one — which lets the
  // allocation sentry hold the kernel to the §8 allocation-free claim.  The
  // callbacks inherit the guard: both callers append into exactly-reserved
  // storage or bump counters.
  std::vector<std::uint32_t> last(bound, 0);
  AllocGuard guard("mattson stack-distance scan");
  const PageId* const pages = seq.pages().data();
  std::size_t distinct = 0;
  for (std::size_t w = 0, begin = 0; begin < n; ++w, begin += 64) {
    const std::size_t end = std::min(n, begin + 64);
    std::uint64_t filling = 0;  // marks[w] while the scan is inside word w
    for (std::size_t i = begin; i < end; ++i) {
      const PageId page = pages[i];
      const std::size_t prev = last[page];
      last[page] = static_cast<std::uint32_t>(i + 1);
      if (prev == 0) {
        ++distinct;
        on_cold();
      } else {
        const std::size_t q = prev - 1;
        const std::uint64_t bit = std::uint64_t{1} << (q & 63);
        const std::uint64_t above = ~std::uint64_t{1} << (q & 63);
        if (q >= begin) {
          on_reuse(1 + static_cast<std::size_t>(popcount64(filling & above)));
          filling &= ~bit;
        } else {
          const std::size_t qw = q >> 6;
          std::size_t prefix = 0;
          for (std::size_t j = qw + 1; j > 0; j -= lowbit(j)) prefix += tree[j];
          on_reuse(1 + distinct - prefix +
                   static_cast<std::size_t>(popcount64(marks[qw] & above)));
          marks[qw] &= ~bit;
          for (std::size_t j = qw + 1; j <= words; j += lowbit(j)) --tree[j];
        }
      }
      filling |= std::uint64_t{1} << (i - begin);
    }
    marks[w] = filling;
    const auto count = static_cast<std::uint32_t>(popcount64(filling));
    for (std::size_t j = w + 1; j <= words; j += lowbit(j)) tree[j] += count;
  }
}

/// Cores per pool task in lru_fault_curve_batch: enough to amortize the
/// dispatch, few enough that large-p sets still spread across workers.
constexpr std::size_t kMattsonChunkCores = 8;

}  // namespace

std::vector<Count> lru_fault_curve_from_histogram(
    const std::vector<Count>& hist, std::size_t max_k) {
  MCP_REQUIRE(!hist.empty(), "lru_fault_curve_from_histogram: empty histogram");
  // f(k) = cold misses + reuses with distance > k; suffix-sum the histogram.
  // From k = the distinct-page count (its last bucket) on, only the cold
  // misses remain.
  std::vector<Count> curve(max_k + 1, hist[0]);
  Count beyond = 0;
  for (std::size_t k = hist.size() - 1; k-- > 0;) {
    beyond += hist[k + 1];
    if (k <= max_k) curve[k] = hist[0] + beyond;
  }
  return curve;
}

std::vector<Count> lru_fault_curve(const RequestSequence& seq,
                                   std::size_t max_k) {
  std::vector<Count> curve =
      lru_fault_curve_from_histogram(stack_distance_histogram(seq), max_k);
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
  // count and at most min(n, page bound): count into a buffer of that
  // size, then return an exact-size copy up to hist[cold], so a caller
  // that keeps the histogram keeps no empty tail.
  const std::size_t bound = page_bound(seq);
  std::vector<Count> hist(std::min(seq.size(), bound) + 1, 0);
  scan_stack_distances(
      seq, bound, [&hist] { ++hist[0]; },
      [&hist](std::size_t d) { ++hist[d]; });
  return {hist.begin(),
          hist.begin() + static_cast<std::ptrdiff_t>(hist[0] + 1)};
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
