#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void RandomPolicy::set_capacity(std::size_t cells) {
  pages_.reserve(cells);
  candidates_.reserve(cells);
}

void RandomPolicy::on_insert(PageId page, const AccessContext& /*ctx*/) {
  MCP_REQUIRE(pages_.insert({page}), "RANDOM: inserting tracked page");
}

void RandomPolicy::on_remove(PageId page) {
  MCP_REQUIRE(pages_.erase(page), "RANDOM: removing untracked page");
}

PageId RandomPolicy::victim(const AccessContext& /*ctx*/,
                            const EvictablePredicate& evictable) {
  // Collect the evictable subset so the draw is uniform over it.
  candidates_.clear();
  for (const Entry& entry : pages_.entries()) {
    if (evictable(entry.page)) candidates_.push_back(entry.page);
  }
  if (candidates_.empty()) return kInvalidPage;
  return candidates_[rng_.below(candidates_.size())];
}

}  // namespace mcp
