// Static partition strategy sP^B_A: the cache is split once into p fixed
// parts; part j exclusively stores pages faulted in by core j, managed by
// its own instance of eviction policy A.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "policies/eviction_policy.hpp"
#include "policies/future_oracle.hpp"
#include "strategies/partition.hpp"

namespace mcp {

class StaticPartitionStrategy final : public CacheStrategy {
 public:
  /// sP^B_A with B = `sizes` (one entry per core, summing to K, each >= 1 —
  /// validated at attach) and A built by `factory` per part.
  StaticPartitionStrategy(Partition sizes, PolicyFactory factory);

  /// sP^B_FITF: per-part offline Belady (victim = page of that core whose
  /// next use in its own sequence is furthest).  For disjoint inputs this is
  /// the per-part optimal, i.e. the paper's sP^B_OPT.
  [[nodiscard]] static std::unique_ptr<StaticPartitionStrategy> fitf(Partition sizes);

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override;
  /// sP^B_A for every A a kernel implements (EvictionPolicy::batch_policy),
  /// once attach() has accepted B; none for FITF, the other policies, and
  /// before attach().
  [[nodiscard]] std::optional<BatchStrategySpec> batch_spec() const override;

  [[nodiscard]] const Partition& sizes() const noexcept { return sizes_; }

 private:
  explicit StaticPartitionStrategy(Partition sizes);  // fitf() uses this
  void maybe_advance_oracle(const AccessContext& ctx);

  Partition sizes_;
  PolicyFactory factory_;
  std::vector<std::unique_ptr<EvictionPolicy>> parts_;
  std::vector<std::size_t> occupancy_;       // resident pages owned per part
  PageOwners owner_;                    // resident page -> owning part
  FutureOracle oracle_;
  bool offline_fitf_ = false;
};

}  // namespace mcp
