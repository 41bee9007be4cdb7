// Scheduling-capable strategies — the power this paper's model forbids and
// Hassidim's model grants.
//
// The paper's Section 2 argues the models apart: Hassidim's offline
// algorithm "is able to modify the schedule of requests, and hence is more
// powerful than a regular cache eviction algorithm".  TimeMultiplexStrategy
// makes that power concrete: it serves one core at a time (deferring all
// others), giving the active core the whole cache.  Experiment E18 measures
// what the power buys (and costs): on working sets that don't fit together,
// multiplexing converts capacity thrash into compulsory misses, trading
// concurrency for locality; the faults-vs-makespan crossover moves with
// tau.
#pragma once

#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "policies/policies.hpp"

namespace mcp {

/// Serves cores one at a time in ascending id order (run-to-completion),
/// deferring everyone else; LRU inside.  Illegal in the paper's model
/// (uses the defer hook), legal in Hassidim's.
class TimeMultiplexStrategy final : public CacheStrategy {
 public:
  TimeMultiplexStrategy() = default;

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  [[nodiscard]] bool defer_request(const AccessContext& ctx,
                                   const CacheView& cache) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  void on_core_done(CoreId core, Time now) override;
  [[nodiscard]] std::string name() const override { return "TIME-MUX_LRU"; }

 private:
  std::size_t cache_size_ = 0;
  CoreId active_ = 0;
  std::vector<bool> done_;
  LruPolicy lru_;
};

}  // namespace mcp
