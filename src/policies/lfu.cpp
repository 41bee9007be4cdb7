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
  PageId best = kInvalidPage;
  Count best_uses = 0;
  Time best_last = 0;
  for (const Entry& entry : entries_.entries()) {
    if (!evictable(entry.page)) continue;
    const bool better =
        best == kInvalidPage || entry.uses < best_uses ||
        (entry.uses == best_uses &&
         (entry.last_use < best_last ||
          (entry.last_use == best_last && entry.page < best)));
    if (better) {
      best = entry.page;
      best_uses = entry.uses;
      best_last = entry.last_use;
    }
  }
  return best;
}

}  // namespace mcp
