#include "offline/exhaustive.hpp"

#include <algorithm>
#include <functional>

#include "core/error.hpp"
#include "core/simulator.hpp"
#include "offline/replay.hpp"

namespace mcp {

namespace {

/// Thrown to stop a probe run at the first undecided eviction.
struct ProbeAbort {
  std::vector<PageId> candidates;
};

/// Thrown by pruning observers when the branch cannot improve / succeed.
struct PruneAbort {};

/// Replays `prefix` victims at full-cache faults; at the first fault beyond
/// the prefix, reports the candidate victims via ProbeAbort.
class ProbeStrategy final : public CacheStrategy {
 public:
  explicit ProbeStrategy(const std::vector<PageId>& prefix) : prefix_(&prefix) {}

  void attach(const SimConfig& config, std::size_t /*num_cores*/,
              const RequestSet* /*requests*/) override {
    cache_size_ = config.cache_size;
    next_ = 0;
  }
  void on_hit(const AccessContext& /*ctx*/) override {}
  void on_fault(const AccessContext& /*ctx*/, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (!needs_cell || cache.occupied() < cache_size_) return;
    if (next_ < prefix_->size()) {
      evictions.push_back((*prefix_)[next_++]);
      return;
    }
    throw ProbeAbort{cache.present_pages()};
  }
  [[nodiscard]] std::string name() const override { return "PROBE"; }

 private:
  const std::vector<PageId>* prefix_;
  std::size_t next_ = 0;
  std::size_t cache_size_ = 0;
};

/// Aborts a run once the running fault total reaches `limit` (the branch
/// cannot beat the incumbent).
class FaultBudgetObserver final : public SimObserver {
 public:
  explicit FaultBudgetObserver(Count limit) : limit_(limit) {}
  void on_fault(const AccessContext& /*ctx*/) override {
    if (++faults_ >= limit_) throw PruneAbort{};
  }

 private:
  Count limit_;
  Count faults_ = 0;
};

/// Aborts a run once any core exceeds its PIF bound before the deadline.
class BoundsObserver final : public SimObserver {
 public:
  BoundsObserver(const std::vector<Count>& bounds, Time deadline)
      : bounds_(&bounds), deadline_(deadline),
        faults_(bounds.size(), 0) {}
  void on_fault(const AccessContext& ctx) override {
    if (ctx.now >= deadline_) return;  // faults at/after the deadline are free
    if (++faults_[ctx.core] > (*bounds_)[ctx.core]) throw PruneAbort{};
  }

 private:
  const std::vector<Count>* bounds_;
  Time deadline_;
  std::vector<Count> faults_;
};

void check_run_budget(std::size_t runs, std::size_t max_runs) {
  if (max_runs != 0 && runs > max_runs) {
    throw ModelError("exhaustive search: simulator run budget exceeded");
  }
}

}  // namespace

ExhaustiveFtfResult exhaustive_ftf(const OfflineInstance& instance,
                                   std::size_t max_runs) {
  instance.validate();
  ExhaustiveFtfResult result;
  result.min_faults = ~Count{0};

  std::vector<PageId> prefix;
  // Explicit DFS over decision prefixes.
  const std::function<void()> dfs = [&]() {
    ++result.simulator_runs;
    check_run_budget(result.simulator_runs, max_runs);
    ProbeStrategy strategy(prefix);
    FaultBudgetObserver budget(result.min_faults);
    Simulator sim(instance.sim_config());
    sim.add_observer(&budget);
    try {
      const RunStats stats = sim.run(instance.requests, strategy);
      // Complete run: every eviction was decided by the prefix.
      if (stats.total_faults() < result.min_faults) {
        result.min_faults = stats.total_faults();
        result.best_schedule = prefix;
      }
    } catch (const ProbeAbort& probe) {
      for (PageId victim : probe.candidates) {
        prefix.push_back(victim);
        dfs();
        prefix.pop_back();
      }
    } catch (const PruneAbort&) {
      // Branch cannot beat the incumbent; drop it.
    }
  };
  dfs();
  MCP_REQUIRE(result.min_faults != ~Count{0},
              "exhaustive_ftf: no complete schedule found");
  return result;
}

ExhaustivePifResult exhaustive_pif(const PifInstance& instance,
                                   std::size_t max_runs) {
  instance.validate();
  ExhaustivePifResult result;

  std::vector<PageId> prefix;
  const std::function<void()> dfs = [&]() {
    if (result.feasible) return;  // already decided
    ++result.simulator_runs;
    check_run_budget(result.simulator_runs, max_runs);
    ProbeStrategy strategy(prefix);
    BoundsObserver bounds(instance.bounds, instance.deadline);
    Simulator sim(instance.base.sim_config());
    sim.add_observer(&bounds);
    try {
      const RunStats stats = sim.run(instance.base.requests, strategy);
      if (stats.within_bounds_at(instance.deadline, instance.bounds)) {
        result.feasible = true;
      }
    } catch (const ProbeAbort& probe) {
      for (PageId victim : probe.candidates) {
        if (result.feasible) return;
        prefix.push_back(victim);
        dfs();
        prefix.pop_back();
      }
    } catch (const PruneAbort&) {
      // Bound blown before the deadline: infeasible branch.
    }
  };
  dfs();
  return result;
}

}  // namespace mcp
