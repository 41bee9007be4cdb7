#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void MruPolicy::on_insert(PageId page, const AccessContext& /*ctx*/) {
  MCP_REQUIRE(order_.push_front(page) != PageList<>::kNone,
              "MRU: inserting tracked page");
}

void MruPolicy::on_hit(PageId page, const AccessContext& /*ctx*/) {
  const std::uint32_t node = order_.find(page);
  MCP_REQUIRE(node != PageList<>::kNone, "MRU: hit on untracked page");
  order_.move_to_front(node);
}

void MruPolicy::on_remove(PageId page) {
  MCP_REQUIRE(order_.erase(page), "MRU: removing untracked page");
}

PageId MruPolicy::victim(const AccessContext& /*ctx*/,
                         const EvictablePredicate& evictable) {
  for (std::uint32_t node = order_.front(); node != PageList<>::kNone;
       node = order_[node].next) {  // front = most recent
    if (evictable(order_[node].page)) return order_[node].page;
  }
  return kInvalidPage;
}

}  // namespace mcp
