#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

void SlruPolicy::reset() {
  probation_.clear();
  protected_.clear();
}

void SlruPolicy::demote_if_needed() {
  while (protected_.size() > protected_cap_) {
    // Protected overflow: its LRU page drops to the front of probation
    // (still warm, but exposed to eviction again).
    const PageId demoted = protected_[protected_.back()].page;
    protected_.erase(demoted);
    (void)probation_.push_front(demoted);
  }
}

void SlruPolicy::on_insert(PageId page, const AccessContext& /*ctx*/) {
  MCP_REQUIRE(protected_.find(page) == PageList<>::kNone &&
                  probation_.push_front(page) != PageList<>::kNone,
              "SLRU: inserting tracked page");
}

void SlruPolicy::on_hit(PageId page, const AccessContext& /*ctx*/) {
  const std::uint32_t node = protected_.find(page);
  if (node != PageList<>::kNone) {
    protected_.move_to_front(node);
    return;
  }
  // Promotion: probation -> protected.
  MCP_REQUIRE(probation_.erase(page), "SLRU: hit on untracked page");
  (void)protected_.push_front(page);
  demote_if_needed();
}

void SlruPolicy::on_remove(PageId page) {
  MCP_REQUIRE(protected_.erase(page) || probation_.erase(page),
              "SLRU: removing untracked page");
}

PageId SlruPolicy::victim(const AccessContext& /*ctx*/,
                          const EvictablePredicate& evictable) {
  // Probation LRU first; fall back to protected LRU.
  for (const PageList<>* segment : {&probation_, &protected_}) {
    for (std::uint32_t node = segment->back(); node != PageList<>::kNone;
         node = (*segment)[node].prev) {
      if (evictable((*segment)[node].page)) return (*segment)[node].page;
    }
  }
  return kInvalidPage;
}

}  // namespace mcp
