#include <tuple>

#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void LruPolicy::on_insert(PageId page, const AccessContext& ctx) {
  MCP_REQUIRE(order_.push_front(page, ctx.now) != Order::kNone,
              "LRU: inserting tracked page");
}

void LruPolicy::on_hit(PageId page, const AccessContext& ctx) {
  const std::uint32_t node = order_.find(page);
  MCP_REQUIRE(node != Order::kNone, "LRU: touching untracked page");
  order_.move_to_front(node);
  order_[node].data = ctx.now;
}

void LruPolicy::on_remove(PageId page) {
  MCP_REQUIRE(order_.erase(page), "LRU: removing untracked page");
}

PageId LruPolicy::victim(const AccessContext& /*ctx*/,
                         const EvictablePredicate& evictable) {
  for (std::uint32_t node = order_.back(); node != Order::kNone;
       node = order_[node].prev) {
    if (evictable(order_[node].page)) return order_[node].page;
  }
  return kInvalidPage;
}

Time LruPolicy::last_use(PageId page) const {
  const std::uint32_t node = order_.find(page);
  return node == Order::kNone ? kTimeNever : order_[node].data;
}

}  // namespace mcp

// ---------------------------------------------------------------------------
// LruScanPolicy (the victim-selection data-structure ablation)
// ---------------------------------------------------------------------------

namespace mcp {

void LruScanPolicy::on_insert(PageId page, const AccessContext& ctx) {
  MCP_REQUIRE(entries_.insert({page, ctx.now}),
              "LRU-SCAN: inserting tracked page");
}

void LruScanPolicy::on_hit(PageId page, const AccessContext& ctx) {
  Entry* const entry = entries_.find(page);
  MCP_REQUIRE(entry != nullptr, "LRU-SCAN: hit on untracked page");
  entry->last_use = ctx.now;
}

void LruScanPolicy::on_remove(PageId page) {
  MCP_REQUIRE(entries_.erase(page), "LRU-SCAN: removing untracked page");
}

PageId LruScanPolicy::victim(const AccessContext& /*ctx*/,
                             const EvictablePredicate& evictable) {
  // Least recent use, then lowest page id.
  const Entry* const best = best_evictable(
      entries_.entries(),
      [](const Entry& a, const Entry& b) {
        return std::tie(a.last_use, a.page) < std::tie(b.last_use, b.page);
      },
      evictable);
  return best == nullptr ? kInvalidPage : best->page;
}

}  // namespace mcp
