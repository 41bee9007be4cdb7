// Dynamic partition strategies dP^D_A.
//
// Two controllers from the paper:
//
//  * Lemma3DynamicPartition — the dynamic partition D of Lemma 3 that makes
//    dP^D_LRU behave *identically* to shared LRU on disjoint inputs: on a
//    fault, the part holding the globally least-recently-used page donates
//    a cell (evicting that page) to the faulting core; while the cache has
//    unused allocation, parts simply grow.  The Lemma-3 equivalence
//    benchmark (E6) checks fault-for-fault equality with S_LRU.
//
//  * StagedPartitionStrategy — a piecewise-constant partition schedule
//    (the paper's "stages", Theorem 1.3).  When a stage boundary shrinks a
//    part below its occupancy, the excess pages are evicted voluntarily by
//    the part's policy; growth pressure during a pending shrink is resolved
//    by evicting from the most over-budget part.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "policies/policies.hpp"
#include "strategies/partition.hpp"
#include "strategies/partitioned_base.hpp"

namespace mcp {

class Lemma3DynamicPartition final : public CacheStrategy {
 public:
  Lemma3DynamicPartition() = default;

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override { return "dP[lemma3]_LRU"; }

  /// Current part sizes (the partition k(.,t) the controller maintains).
  [[nodiscard]] const Partition& sizes() const noexcept { return sizes_; }
  /// Number of times the partition changed (cell moved between parts).
  [[nodiscard]] Count partition_changes() const noexcept { return changes_; }

 private:
  std::vector<std::unique_ptr<LruPolicy>> parts_;  // each sized for K pages
  Partition sizes_;
  std::vector<std::size_t> occupancy_;
  PageOwners owner_;
  std::size_t cache_size_ = 0;
  std::size_t total_occupancy_ = 0;
  Count changes_ = 0;
};

/// One stage of a partition schedule: `sizes` applies from timestep `start`
/// until the next stage's start.
struct PartitionStage {
  Time start = 0;
  Partition sizes;
};

class StagedPartitionStrategy final : public BudgetedPartitionStrategy {
 public:
  /// `schedule` must be non-empty, with ascending starts and the first stage
  /// starting at 0; every stage's sizes must partition K with parts >= 1.
  StagedPartitionStrategy(std::vector<PartitionStage> schedule,
                          PolicyFactory factory);

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t current_stage() const noexcept { return stage_; }

 protected:
  [[nodiscard]] Partition decide_sizes(Time now) override;
  [[nodiscard]] Partition initial_sizes() const override {
    return schedule_.front().sizes;
  }

 private:
  std::vector<PartitionStage> schedule_;
  std::size_t stage_ = 0;
};

}  // namespace mcp
