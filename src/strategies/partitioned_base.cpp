#include "strategies/partitioned_base.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace mcp {

BudgetedPartitionStrategy::BudgetedPartitionStrategy(PolicyFactory factory)
    : factory_(std::move(factory)) {
  MCP_REQUIRE(static_cast<bool>(factory_),
              "BudgetedPartitionStrategy: empty factory");
}

Partition BudgetedPartitionStrategy::initial_sizes() const {
  return even_partition(cache_size_, occupancy_.size());
}

void BudgetedPartitionStrategy::attach(const SimConfig& config,
                                       std::size_t num_cores,
                                       const RequestSet* /*requests*/) {
  cache_size_ = config.cache_size;
  parts_.clear();
  for (std::size_t j = 0; j < num_cores; ++j) {
    parts_.push_back(factory_());
    parts_.back()->reset();
  }
  occupancy_.assign(num_cores, 0);
  owner_.reset();
  total_occupancy_ = 0;
  repartitions_ = 0;
  sizes_ = initial_sizes();
  validate_partition(sizes_, cache_size_, num_cores, /*min_per_core=*/1);
  for (std::size_t j = 0; j < num_cores; ++j) {
    parts_[j]->set_capacity(sizes_[j]);
  }
}

void BudgetedPartitionStrategy::apply_sizes(Partition&& next) {
  if (next.empty() || next == sizes_) return;
  validate_partition(next, cache_size_, sizes_.size(), /*min_per_core=*/1);
  for (std::size_t j = 0; j < sizes_.size(); ++j) {
    if (next[j] != sizes_[j]) {
      ++repartitions_;
      break;
    }
  }
  sizes_ = std::move(next);
  for (std::size_t j = 0; j < sizes_.size(); ++j) {
    parts_[j]->set_capacity(sizes_[j]);
  }
}

PageId BudgetedPartitionStrategy::evict_from_part(CoreId part,
                                                  const AccessContext& ctx,
                                                  const CacheView& cache) {
  const PageId victim = parts_[part]->victim(
      ctx, [&cache](PageId page) { return cache.contains(page); });
  if (victim == kInvalidPage) return kInvalidPage;
  parts_[part]->on_remove(victim);
  owner_.clear(victim);
  --occupancy_[part];
  --total_occupancy_;
  return victim;
}

void BudgetedPartitionStrategy::on_step_begin(Time now, const CacheView& cache,
                                              std::vector<PageId>& evictions) {
  apply_sizes(decide_sizes(now));
  const AccessContext ctx{kInvalidCore, kInvalidPage, now, 0};
  for (CoreId j = 0; j < sizes_.size(); ++j) {
    while (occupancy_[j] > sizes_[j]) {
      const PageId victim = evict_from_part(j, ctx, cache);
      if (victim == kInvalidPage) break;  // reserved cells; retry next step
      evictions.push_back(victim);
    }
  }
}

void BudgetedPartitionStrategy::on_hit(const AccessContext& ctx) {
  const CoreId owner = owner_[ctx.page];
  MCP_ASSERT_MSG(owner != kInvalidCore,
                 "budgeted partition: hit on unowned page");
  parts_[owner]->on_hit(ctx.page, ctx);
  observe_hit(ctx);
}

void BudgetedPartitionStrategy::on_fault(const AccessContext& ctx,
                                         const CacheView& cache,
                                         bool needs_cell,
                                         std::vector<PageId>& evictions) {
  observe_fault(ctx);
  if (!needs_cell) return;
  const CoreId j = ctx.core;

  while (occupancy_[j] + 1 > sizes_[j]) {
    const PageId victim = evict_from_part(j, ctx, cache);
    MCP_REQUIRE(victim != kInvalidPage,
                name() + ": part " + std::to_string(j) +
                    " cannot shrink (all reserved)");
    evictions.push_back(victim);
  }
  while (total_occupancy_ + 1 > cache_size_) {
    CoreId worst = kInvalidCore;
    std::size_t worst_excess = 0;
    for (CoreId c = 0; c < sizes_.size(); ++c) {
      if (occupancy_[c] > sizes_[c] && occupancy_[c] - sizes_[c] > worst_excess) {
        worst = c;
        worst_excess = occupancy_[c] - sizes_[c];
      }
    }
    MCP_REQUIRE(worst != kInvalidCore,
                name() + ": cache full with no over-budget part");
    const PageId victim = evict_from_part(worst, ctx, cache);
    MCP_REQUIRE(victim != kInvalidPage,
                name() + ": over-budget part cannot shrink (all reserved)");
    evictions.push_back(victim);
  }

  parts_[j]->on_insert(ctx.page, ctx);
  owner_.set(ctx.page, j, cache);
  ++occupancy_[j];
  ++total_occupancy_;
}

}  // namespace mcp
