#include "offline/replay.hpp"

#include "core/error.hpp"

namespace mcp {

void ReplayStrategy::attach(const SimConfig& config, std::size_t /*num_cores*/,
                            const RequestSet* /*requests*/) {
  cache_size_ = config.cache_size;
  next_ = 0;
  lru_.reset();
}

void ReplayStrategy::on_hit(const AccessContext& ctx) {
  // Shadow LRU stays current so the fallback (if any) is well-formed.
  if (lru_.contains(ctx.page)) lru_.on_hit(ctx.page, ctx);
}

void ReplayStrategy::on_fault(const AccessContext& ctx,
                              const CacheView& cache, bool needs_cell,
                              std::vector<PageId>& evictions) {
  if (!needs_cell) return;
  if (next_ < schedule_.size()) {
    const PageId victim = schedule_[next_++];
    if (victim == kInvalidPage) {
      MCP_REQUIRE(cache.occupied() < cache_size_,
                  "replay schedule skips an eviction but the cache is full");
    } else {
      if (lru_.contains(victim)) lru_.on_remove(victim);
      evictions.push_back(victim);
    }
  } else {
    MCP_REQUIRE(on_exhausted_ == OnExhausted::kFallbackLru,
                "replay schedule exhausted: more faults than entries");
    if (cache.occupied() == cache_size_) {
      const PageId victim = lru_.victim(
          ctx, [&cache](PageId page) { return cache.contains(page); });
      MCP_REQUIRE(victim != kInvalidPage,
                  "replay fallback: no evictable page");
      lru_.on_remove(victim);
      evictions.push_back(victim);
    }
  }
  if (lru_.contains(ctx.page)) lru_.on_remove(ctx.page);
  lru_.on_insert(ctx.page, ctx);
}

RunStats replay_schedule(const OfflineInstance& instance,
                         const std::vector<PageId>& schedule) {
  instance.validate();
  ReplayStrategy strategy(schedule);
  Simulator sim(instance.sim_config());
  return sim.run(instance.requests, strategy);
}

}  // namespace mcp
