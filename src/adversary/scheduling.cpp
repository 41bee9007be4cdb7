#include "adversary/scheduling.hpp"

#include "core/error.hpp"

namespace mcp {

void TimeMultiplexStrategy::attach(const SimConfig& config,
                                   std::size_t num_cores,
                                   const RequestSet* /*requests*/) {
  cache_size_ = config.cache_size;
  active_ = 0;
  done_.assign(num_cores, false);
  lru_.reset();
}

bool TimeMultiplexStrategy::defer_request(const AccessContext& ctx,
                                          const CacheView& /*cache*/) {
  return ctx.core != active_;
}

void TimeMultiplexStrategy::on_hit(const AccessContext& ctx) {
  lru_.on_hit(ctx.page, ctx);
}

void TimeMultiplexStrategy::on_fault(const AccessContext& ctx,
                                     const CacheView& cache, bool needs_cell,
                                     std::vector<PageId>& evictions) {
  if (!needs_cell) return;
  if (cache.occupied() == cache_size_) {
    const PageId victim = lru_.victim(
        ctx, [&cache](PageId page) { return cache.contains(page); });
    MCP_REQUIRE(victim != kInvalidPage, "time-mux: no evictable page");
    lru_.on_remove(victim);
    evictions.push_back(victim);
  }
  lru_.on_insert(ctx.page, ctx);
}

void TimeMultiplexStrategy::on_core_done(CoreId core, Time /*now*/) {
  done_[core] = true;
  while (active_ < done_.size() && done_[active_]) ++active_;
  if (active_ >= done_.size()) active_ = 0;  // everyone finished
}

}  // namespace mcp
