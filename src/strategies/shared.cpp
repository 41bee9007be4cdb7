#include "strategies/shared.hpp"

#include "core/error.hpp"
#include "policies/policies.hpp"
#include "policies/policy_registry.hpp"

namespace mcp {

SharedStrategy::SharedStrategy(PolicyFactory factory)
    : factory_(std::move(factory)) {
  MCP_REQUIRE(static_cast<bool>(factory_), "SharedStrategy: empty factory");
}

std::unique_ptr<SharedStrategy> SharedStrategy::fitf() {
  auto strategy = std::unique_ptr<SharedStrategy>(new SharedStrategy());
  strategy->offline_fitf_ = true;
  return strategy;
}

void SharedStrategy::attach(const SimConfig& config, std::size_t /*num_cores*/,
                            const RequestSet* requests) {
  cache_size_ = config.cache_size;
  if (offline_fitf_) {
    MCP_REQUIRE(requests != nullptr,
                "S_FITF is offline: it needs the materialized request set");
    oracle_.attach(*requests);
    policy_ = std::make_unique<FitfPolicy>(&oracle_);
  } else {
    policy_ = factory_();
    policy_->reset();
    policy_->set_capacity(cache_size_);
  }
}

void SharedStrategy::maybe_advance_oracle(const AccessContext& ctx) {
  // Future uses are occurrences strictly after the request being served.
  if (offline_fitf_) oracle_.advance(ctx.core, ctx.seq_index + 1);
}

void SharedStrategy::on_hit(const AccessContext& ctx) {
  maybe_advance_oracle(ctx);
  policy_->on_hit(ctx.page, ctx);
}

void SharedStrategy::on_fault(const AccessContext& ctx,
                              const CacheView& cache, bool needs_cell,
                              std::vector<PageId>& evictions) {
  maybe_advance_oracle(ctx);
  if (!needs_cell) return;  // page already in flight; no cell required
  if (cache.occupied() == cache_size_) {
    const PageId victim = policy_->victim(
        ctx, [&cache](PageId page) { return cache.contains(page); });
    MCP_REQUIRE(victim != kInvalidPage,
                "S_" + policy_->name() + ": no evictable page (all reserved)");
    policy_->on_remove(victim);
    evictions.push_back(victim);
  }
  policy_->on_insert(ctx.page, ctx);
}

std::string SharedStrategy::name() const {
  if (policy_ != nullptr) return "S_" + policy_->name();
  return offline_fitf_ ? "S_FITF" : "S_?";
}

std::optional<BatchStrategySpec> SharedStrategy::batch_spec() const {
  if (policy_ == nullptr) return std::nullopt;
  const std::optional<BatchPolicy> policy = policy_->batch_policy();
  if (!policy.has_value()) return std::nullopt;
  return BatchStrategySpec::shared(*policy);
}

}  // namespace mcp
