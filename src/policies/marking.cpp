#include <algorithm>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void MarkingPolicy::reset() {
  entries_.clear();
  marked_count_ = 0;
  phases_ = 0;
}

void MarkingPolicy::set_capacity(std::size_t cells) {
  entries_.reserve(cells);
  unmarked_.reserve(cells);
  marked_.reserve(cells);
}

void MarkingPolicy::on_insert(PageId page, const AccessContext& ctx) {
  MCP_REQUIRE(entries_.insert({page, true, ctx.now}),
              "MARK: inserting tracked page");
  ++marked_count_;
}

void MarkingPolicy::on_hit(PageId page, const AccessContext& ctx) {
  Entry* const entry = entries_.find(page);
  MCP_REQUIRE(entry != nullptr, "MARK: hit on untracked page");
  if (!entry->marked) {
    entry->marked = true;
    ++marked_count_;
  }
  entry->last_use = ctx.now;
}

void MarkingPolicy::on_remove(PageId page) {
  const Entry* const entry = entries_.find(page);
  MCP_REQUIRE(entry != nullptr, "MARK: removing untracked page");
  if (entry->marked) --marked_count_;
  entries_.erase(page);
}

PageId MarkingPolicy::victim(const AccessContext& /*ctx*/,
                             const EvictablePredicate& evictable) {
  if (entries_.empty()) return kInvalidPage;
  if (marked_count_ == entries_.size()) {
    // Every page is marked: the phase ends, all marks clear.
    for (Entry& entry : entries_.entries()) entry.marked = false;
    marked_count_ = 0;
    ++phases_;
  }
  if (tie_break_ == TieBreak::kRandom) {
    // Randomized marking: uniform over unmarked evictable pages; fall back
    // to a uniform marked evictable page only if none (reserved cells).
    unmarked_.clear();
    marked_.clear();
    for (const Entry& entry : entries_.entries()) {
      if (!evictable(entry.page)) continue;
      (entry.marked ? marked_ : unmarked_).push_back(entry.page);
    }
    std::vector<PageId>& pool = unmarked_.empty() ? marked_ : unmarked_;
    if (pool.empty()) return kInvalidPage;
    std::sort(pool.begin(), pool.end());  // storage-order independence
    return pool[rng_.below(pool.size())];
  }
  // Evict the least recently used *unmarked* evictable page; fall back to a
  // marked page only if no unmarked page is evictable (reserved cells can
  // force this), preferring the least recently used again.  Ties in time
  // break by page id.
  const Entry* const best = best_evictable(
      entries_.entries(),
      [](const Entry& a, const Entry& b) {
        return std::tie(a.marked, a.last_use, a.page) <
               std::tie(b.marked, b.last_use, b.page);
      },
      evictable);
  return best == nullptr ? kInvalidPage : best->page;
}

}  // namespace mcp
