// Replaying offline eviction schedules through the real simulator.
//
// A schedule is one entry per fault, in the global order the simulator
// charges faults (step by step, logical core order within a step): the page
// evicted for that fault, or kInvalidPage when no eviction was needed.
// Replaying an FTF solver schedule and checking the simulated fault count
// equals the solver's optimum is the strongest cross-validation the suite
// has — the searches and the simulator implement the model independently.
#pragma once

#include <cstddef>
#include <vector>

#include "core/simulator.hpp"
#include "core/strategy.hpp"
#include "offline/instance.hpp"
#include "policies/policies.hpp"

namespace mcp {

class ReplayStrategy final : public CacheStrategy {
 public:
  /// What to do when a fault arrives after the schedule's last entry.
  enum class OnExhausted {
    kThrow,        ///< the schedule must cover every fault (FTF replays)
    kFallbackLru,  ///< continue with LRU (PIF witnesses: post-deadline
                   ///< behaviour is immaterial, but the run must finish)
  };

  explicit ReplayStrategy(std::vector<PageId> schedule,
                          OnExhausted on_exhausted = OnExhausted::kThrow)
      : schedule_(std::move(schedule)), on_exhausted_(on_exhausted) {}

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override { return "REPLAY"; }

  /// Schedule entries consumed so far (== faults served from the script).
  [[nodiscard]] std::size_t consumed() const noexcept { return next_; }

 private:
  std::vector<PageId> schedule_;
  OnExhausted on_exhausted_;
  std::size_t next_ = 0;
  std::size_t cache_size_ = 0;
  LruPolicy lru_;  // shadow bookkeeping for the fallback
};

/// Runs `instance` under the given eviction schedule and returns the stats.
/// Throws ModelError if the schedule is too short, evicts an absent page, or
/// skips a required eviction.
[[nodiscard]] RunStats replay_schedule(const OfflineInstance& instance,
                                       const std::vector<PageId>& schedule);

}  // namespace mcp
