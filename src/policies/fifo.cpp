#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void FifoPolicy::on_insert(PageId page, const AccessContext& /*ctx*/) {
  MCP_REQUIRE(order_.push_front(page) != PageList<>::kNone,
              "FIFO: inserting tracked page");
}

void FifoPolicy::on_remove(PageId page) {
  MCP_REQUIRE(order_.erase(page), "FIFO: removing untracked page");
}

PageId FifoPolicy::victim(const AccessContext& /*ctx*/,
                          const EvictablePredicate& evictable) {
  for (std::uint32_t node = order_.back(); node != PageList<>::kNone;
       node = order_[node].prev) {
    if (evictable(order_[node].page)) return order_[node].page;
  }
  return kInvalidPage;
}

}  // namespace mcp
