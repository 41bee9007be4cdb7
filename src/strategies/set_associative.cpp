#include "strategies/set_associative.hpp"

#include "core/error.hpp"

namespace mcp {

SetAssociativeStrategy::SetAssociativeStrategy(std::size_t num_sets,
                                               PolicyFactory factory)
    : num_sets_(num_sets), factory_(std::move(factory)) {
  MCP_REQUIRE(num_sets_ > 0, "set-associative: need at least one set");
  MCP_REQUIRE(static_cast<bool>(factory_), "set-associative: empty factory");
}

void SetAssociativeStrategy::attach(const SimConfig& config,
                                    std::size_t /*num_cores*/,
                                    const RequestSet* /*requests*/) {
  MCP_REQUIRE(config.cache_size % num_sets_ == 0,
              "set-associative: K must be divisible by the set count");
  ways_ = config.cache_size / num_sets_;
  sets_.clear();
  for (std::size_t s = 0; s < num_sets_; ++s) {
    sets_.push_back(factory_());
    sets_.back()->reset();
    sets_.back()->set_capacity(ways_);
  }
  occupancy_.assign(num_sets_, 0);
}

void SetAssociativeStrategy::on_hit(const AccessContext& ctx) {
  sets_[set_of(ctx.page)]->on_hit(ctx.page, ctx);
}

void SetAssociativeStrategy::on_step_begin(Time now, const CacheView& cache,
                                           std::vector<PageId>& evictions) {
  // Drain overflow: sets holding more than `ways_` pages (possible only
  // when a fault hit a fully reserved set) shrink as soon as they can.
  const AccessContext ctx{kInvalidCore, kInvalidPage, now, 0};
  for (std::size_t s = 0; s < num_sets_; ++s) {
    while (occupancy_[s] > ways_) {
      const PageId victim = sets_[s]->victim(
          ctx, [&cache](PageId page) { return cache.contains(page); });
      if (victim == kInvalidPage) break;  // still all reserved; retry later
      sets_[s]->on_remove(victim);
      --occupancy_[s];
      evictions.push_back(victim);
    }
  }
}

void SetAssociativeStrategy::on_fault(const AccessContext& ctx,
                                      const CacheView& cache, bool needs_cell,
                                      std::vector<PageId>& evictions) {
  if (!needs_cell) return;
  const std::size_t s = set_of(ctx.page);
  if (occupancy_[s] >= ways_) {
    // Conflict: the victim must come from this set, regardless of free
    // cells elsewhere.  Evict down to ways_-1 so the insert lands within
    // budget; if every page of the set is reserved (fetches in flight),
    // overflow into a free cell and let on_step_begin reclaim it.
    while (occupancy_[s] + 1 > ways_) {
      const PageId victim = sets_[s]->victim(
          ctx, [&cache](PageId page) { return cache.contains(page); });
      if (victim == kInvalidPage) break;  // all reserved: overflow
      sets_[s]->on_remove(victim);
      --occupancy_[s];
      evictions.push_back(victim);
    }
  }
  // Overflow needs a free cell; if the cache is globally full, displace a
  // present page from another set — over-budget sets first, then the first
  // set with anything evictable (the victim-buffer corner an MSHR absorbs
  // in hardware; it cannot be avoided when a whole set is mid-fetch).
  if (evictions.empty() && cache.occupied() == cache.capacity()) {
    std::size_t donor = num_sets_;
    PageId victim = kInvalidPage;
    for (int pass = 0; pass < 2 && victim == kInvalidPage; ++pass) {
      for (std::size_t d = 0; d < num_sets_; ++d) {
        if (d == s) continue;
        if (pass == 0 && occupancy_[d] <= ways_) continue;  // over-budget first
        if (occupancy_[d] == 0) continue;
        const PageId candidate = sets_[d]->victim(
            ctx, [&cache](PageId page) { return cache.contains(page); });
        if (candidate != kInvalidPage) {
          donor = d;
          victim = candidate;
          break;
        }
      }
    }
    MCP_REQUIRE(victim != kInvalidPage,
                name() + ": every resident page is reserved");
    sets_[donor]->on_remove(victim);
    --occupancy_[donor];
    evictions.push_back(victim);
  }
  sets_[s]->on_insert(ctx.page, ctx);
  ++occupancy_[s];
}

std::string SetAssociativeStrategy::name() const {
  const std::string policy =
      sets_.empty() ? std::string("?") : sets_[0]->name();
  return "SA[" + std::to_string(num_sets_) + "x" + std::to_string(ways_) +
         "]_" + policy;
}

}  // namespace mcp
