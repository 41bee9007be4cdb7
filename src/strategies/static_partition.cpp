#include "strategies/static_partition.hpp"

#include "core/error.hpp"
#include "policies/policies.hpp"

namespace mcp {

StaticPartitionStrategy::StaticPartitionStrategy(Partition sizes,
                                                 PolicyFactory factory)
    : sizes_(std::move(sizes)), factory_(std::move(factory)) {
  MCP_REQUIRE(static_cast<bool>(factory_), "StaticPartitionStrategy: empty factory");
}

StaticPartitionStrategy::StaticPartitionStrategy(Partition sizes)
    : sizes_(std::move(sizes)) {}

std::unique_ptr<StaticPartitionStrategy> StaticPartitionStrategy::fitf(
    Partition sizes) {
  auto strategy = std::unique_ptr<StaticPartitionStrategy>(
      new StaticPartitionStrategy(std::move(sizes)));
  strategy->offline_fitf_ = true;
  return strategy;
}

void StaticPartitionStrategy::attach(const SimConfig& config,
                                     std::size_t num_cores,
                                     const RequestSet* requests) {
  validate_partition(sizes_, config.cache_size, num_cores, /*min_per_core=*/1);
  parts_.clear();
  occupancy_.assign(num_cores, 0);
  owner_.reset();
  if (offline_fitf_) {
    MCP_REQUIRE(requests != nullptr,
                "sP_FITF is offline: it needs the materialized request set");
    oracle_.attach(*requests);
    for (std::size_t j = 0; j < num_cores; ++j) {
      parts_.push_back(std::make_unique<FitfPolicy>(&oracle_));
    }
  } else {
    for (std::size_t j = 0; j < num_cores; ++j) {
      parts_.push_back(factory_());
      parts_.back()->reset();
      parts_.back()->set_capacity(sizes_[j]);
    }
  }
}

void StaticPartitionStrategy::maybe_advance_oracle(const AccessContext& ctx) {
  if (offline_fitf_) oracle_.advance(ctx.core, ctx.seq_index + 1);
}

void StaticPartitionStrategy::on_hit(const AccessContext& ctx) {
  maybe_advance_oracle(ctx);
  // The hit may land in another core's part for non-disjoint inputs (the
  // partition governs placement, not lookup); credit the owning part.
  const CoreId owner = owner_[ctx.page];
  MCP_ASSERT_MSG(owner != kInvalidCore, "hit on a page no part owns");
  parts_[owner]->on_hit(ctx.page, ctx);
}

void StaticPartitionStrategy::on_fault(const AccessContext& ctx,
                                       const CacheView& cache, bool needs_cell,
                                       std::vector<PageId>& evictions) {
  maybe_advance_oracle(ctx);
  if (!needs_cell) return;
  const CoreId j = ctx.core;
  if (occupancy_[j] == sizes_[j]) {
    const PageId victim = parts_[j]->victim(
        ctx, [&cache](PageId page) { return cache.contains(page); });
    MCP_REQUIRE(victim != kInvalidPage,
                name() + ": part " + std::to_string(j) +
                    " has no evictable page (all reserved)");
    parts_[j]->on_remove(victim);
    owner_.clear(victim);
    --occupancy_[j];
    evictions.push_back(victim);
  }
  parts_[j]->on_insert(ctx.page, ctx);
  owner_.set(ctx.page, j, cache);
  ++occupancy_[j];
}

std::string StaticPartitionStrategy::name() const {
  const std::string policy_name =
      offline_fitf_ ? "FITF"
                    : (parts_.empty() ? std::string("?") : parts_[0]->name());
  return "sP" + partition_to_string(sizes_) + "_" + policy_name;
}

std::optional<BatchStrategySpec> StaticPartitionStrategy::batch_spec() const {
  if (parts_.empty()) return std::nullopt;
  const std::optional<BatchPolicy> policy = parts_[0]->batch_policy();
  if (!policy.has_value()) return std::nullopt;
  // Every part's, should a factory mix policies.
  for (const std::unique_ptr<EvictionPolicy>& part : parts_) {
    if (part->batch_policy() != policy) return std::nullopt;
  }
  return BatchStrategySpec::static_partition(sizes_, *policy);
}

}  // namespace mcp
