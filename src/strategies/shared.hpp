// Shared cache strategy S_A: one eviction policy governs the whole cache.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "policies/eviction_policy.hpp"
#include "policies/future_oracle.hpp"

namespace mcp {

/// S_A — the entire cache is one region managed by policy A.  Evicts only
/// when the cache is full (honest, in the paper's Theorem-4 sense).
///
/// Construct with a PolicyFactory for online policies; use
/// SharedStrategy::fitf() for the offline shared FITF (S_FITF), which needs
/// the request set at attach() time.
class SharedStrategy final : public CacheStrategy {
 public:
  explicit SharedStrategy(PolicyFactory factory);

  /// Offline S_FITF: victim = resident page whose next use (by any core) is
  /// furthest in the future.
  [[nodiscard]] static std::unique_ptr<SharedStrategy> fitf();

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override;
  /// S_A for every A a kernel implements (EvictionPolicy::batch_policy);
  /// none for S_FITF, the other policies, and before attach().
  [[nodiscard]] std::optional<BatchStrategySpec> batch_spec() const override;

 private:
  SharedStrategy() = default;  // fitf() uses this
  void maybe_advance_oracle(const AccessContext& ctx);

  PolicyFactory factory_;
  std::unique_ptr<EvictionPolicy> policy_;
  FutureOracle oracle_;
  bool offline_fitf_ = false;
  std::size_t cache_size_ = 0;
};

}  // namespace mcp
