#include <tuple>

#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void LfuPolicy::on_insert(PageId page, const AccessContext& ctx) {
  MCP_REQUIRE(entries_.insert({page, 1, ctx.now}),
              "LFU: inserting tracked page");
}

void LfuPolicy::on_hit(PageId page, const AccessContext& ctx) {
  Entry* const entry = entries_.find(page);
  MCP_REQUIRE(entry != nullptr, "LFU: hit on untracked page");
  ++entry->uses;
  entry->last_use = ctx.now;
}

void LfuPolicy::on_remove(PageId page) {
  MCP_REQUIRE(entries_.erase(page), "LFU: removing untracked page");
}

PageId LfuPolicy::victim(const AccessContext& /*ctx*/,
                         const EvictablePredicate& evictable) {
  // Fewest uses, then least recent use, then lowest page id.
  const Entry* const best = best_evictable(
      entries_.entries(),
      [](const Entry& a, const Entry& b) {
        return std::tie(a.uses, a.last_use, a.page) <
               std::tie(b.uses, b.last_use, b.page);
      },
      evictable);
  return best == nullptr ? kInvalidPage : best->page;
}

}  // namespace mcp
