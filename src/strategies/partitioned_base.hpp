// Shared machinery for partition strategies whose part sizes can change at
// run time (staged schedules, utility-driven and fairness-driven
// controllers).  Derived classes decide *when sizes change*; this base owns
// the budget bookkeeping: per-part policies, occupancy, page ownership,
// deferred shrinking (reserved cells can postpone evictions) and the
// growth-under-pending-shrink pressure rule.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "policies/eviction_policy.hpp"
#include "strategies/partition.hpp"

namespace mcp {

class BudgetedPartitionStrategy : public CacheStrategy {
 public:
  explicit BudgetedPartitionStrategy(PolicyFactory factory);

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  void on_step_begin(Time now, const CacheView& cache,
                     std::vector<PageId>& evictions) override;

  [[nodiscard]] const Partition& current_sizes() const noexcept { return sizes_; }
  /// Times a cell moved between parts (repartition count).
  [[nodiscard]] Count repartitions() const noexcept { return repartitions_; }

 protected:
  /// Derived classes: return the part sizes to use from `now` on (must
  /// partition K with each part >= 1), or an empty vector for "no change".
  /// Called at the start of every timestep, before shrink enforcement.
  [[nodiscard]] virtual Partition decide_sizes(Time now) = 0;
  /// Derived classes: initial partition (default: even split).
  [[nodiscard]] virtual Partition initial_sizes() const;
  /// Observation hooks for adaptive controllers (called after bookkeeping).
  virtual void observe_hit(const AccessContext& ctx) { (void)ctx; }
  virtual void observe_fault(const AccessContext& ctx) { (void)ctx; }

  [[nodiscard]] std::size_t num_cores() const noexcept { return sizes_.size(); }
  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_size_; }
  [[nodiscard]] const std::vector<std::size_t>& occupancy() const noexcept {
    return occupancy_;
  }

 private:
  PageId evict_from_part(CoreId part, const AccessContext& ctx,
                         const CacheView& cache);
  void apply_sizes(Partition&& next);

  PolicyFactory factory_;
  std::vector<std::unique_ptr<EvictionPolicy>> parts_;
  Partition sizes_;
  std::vector<std::size_t> occupancy_;
  PageOwners owner_;
  std::size_t cache_size_ = 0;
  std::size_t total_occupancy_ = 0;
  Count repartitions_ = 0;
};

}  // namespace mcp
