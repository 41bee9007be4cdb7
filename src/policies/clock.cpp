#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

// The ring is a list read from front to back and around; the node at its
// front is the start of the ring.  Insertion links the new page just before
// the hand (so it becomes the ring's start when the hand is there), and the
// hand keeps pointing at the same page.

void ClockPolicy::reset() {
  ring_.clear();
  hand_ = Ring::kNone;
}

void ClockPolicy::on_insert(PageId page, const AccessContext& /*ctx*/) {
  // Insert just before the hand so the new page is the last the hand will
  // revisit (classic CLOCK admission).  The faulting access references the
  // page, so it arrives with its bit set — this keeps CLOCK conservative
  // (a just-fetched page always survives the next sweep).
  const std::uint32_t node =
      ring_.insert_before(hand_, page, /*referenced=*/true);
  MCP_REQUIRE(node != Ring::kNone, "CLOCK: inserting tracked page");
  if (hand_ == Ring::kNone) hand_ = node;
}

void ClockPolicy::on_hit(PageId page, const AccessContext& /*ctx*/) {
  const std::uint32_t node = ring_.find(page);
  MCP_REQUIRE(node != Ring::kNone, "CLOCK: hit on untracked page");
  ring_[node].data = true;
}

void ClockPolicy::on_remove(PageId page) {
  const std::uint32_t node = ring_.find(page);
  MCP_REQUIRE(node != Ring::kNone, "CLOCK: removing untracked page");
  if (node == hand_) {
    // The hand moves on to the next page, except from the ring's last
    // position, where it steps back to the page before it.
    hand_ = node == ring_.back() ? ring_[node].prev : ring_[node].next;
  }
  ring_.erase(page);
}

PageId ClockPolicy::victim(const AccessContext& /*ctx*/,
                           const EvictablePredicate& evictable) {
  if (ring_.empty()) return kInvalidPage;
  // Two full sweeps suffice: the first clears referenced bits, the second
  // must find an unreferenced evictable page if any page is evictable.
  for (std::size_t visited = 0; visited < 2 * ring_.size(); ++visited) {
    Ring::Node& entry = ring_[hand_];
    if (!evictable(entry.page)) {
      hand_ = after(hand_);
      continue;
    }
    if (entry.data) {
      entry.data = false;
      hand_ = after(hand_);
      continue;
    }
    return entry.page;  // hand stays; caller removes the page via on_remove
  }
  return kInvalidPage;  // nothing evictable
}

}  // namespace mcp
