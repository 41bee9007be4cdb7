// Empirical validation of Theorem 4: forcing faults (voluntary evictions)
// can never push the total below the honest optimum on disjoint inputs.
//
// We wrap online strategies in a randomized dishonest layer that evicts a
// present page "for no reason" with probability q per step, sweep many
// seeds, and check no run ever beats the honest optimum from Algorithm 1.
#include <gtest/gtest.h>

#include <memory>

#include "core/simulator.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/honesty.hpp"
#include "policies/policy_registry.hpp"
#include "policies/policies.hpp"
#include "strategies/shared.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;

/// LRU plus "forced faults": evicts a uniformly random present page with
/// probability `q` at the start of each step (a voluntary eviction in the
/// paper's Theorem-4 sense).  Manages its own LRU bookkeeping so the
/// voluntary removals stay consistent.
class SelfContainedDishonestLru final : public CacheStrategy {
 public:
  SelfContainedDishonestLru(double q, std::uint64_t seed) : q_(q), rng_(seed) {}

  void attach(const SimConfig& config, std::size_t /*num_cores*/,
              const RequestSet* /*requests*/) override {
    cache_size_ = config.cache_size;
    lru_ = std::make_unique<LruPolicy>();
    lru_->reset();
  }
  void on_hit(const AccessContext& ctx) override { lru_->on_hit(ctx.page, ctx); }
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (!needs_cell) return;
    if (cache.occupied() == cache_size_) {
      const PageId victim = lru_->victim(
          ctx, [&cache](PageId page) { return cache.contains(page); });
      MCP_REQUIRE(victim != kInvalidPage, "no evictable page");
      lru_->on_remove(victim);
      evictions.push_back(victim);
    }
    lru_->on_insert(ctx.page, ctx);
  }
  void on_step_begin(Time /*now*/, const CacheView& cache,
                     std::vector<PageId>& evictions) override {
    if (!rng_.chance(q_)) return;
    // Sorted order keeps the random choice reproducible across engines.
    const std::vector<PageId> present = cache.present_pages();
    if (present.empty()) return;
    const PageId victim = present[rng_.below(present.size())];
    lru_->on_remove(victim);
    evictions.push_back(victim);
  }
  [[nodiscard]] std::string name() const override { return "dishonest-LRU"; }

 private:
  double q_;
  Rng rng_;
  std::size_t cache_size_ = 0;
  std::unique_ptr<LruPolicy> lru_;
};

TEST(Theorem4, ForcedFaultsNeverBeatTheHonestOptimum) {
  Rng rng(20260707);
  for (int trial = 0; trial < 6; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 2, 3, 6);
    OfflineInstance inst;
    inst.requests = rs;
    inst.cache_size = 2;
    inst.tau = 1 + rng.below(2);
    const Count honest_opt = solve_ftf(inst).min_faults;

    for (double q : {0.05, 0.2, 0.5}) {
      for (int seed = 0; seed < 8; ++seed) {
        SelfContainedDishonestLru dishonest(
            q, 1000 + static_cast<std::uint64_t>(seed));
        HonestyChecker checker;
        Simulator sim(inst.sim_config());
        sim.add_observer(&checker);
        const RunStats stats = sim.run(rs, dishonest);
        EXPECT_GE(stats.total_faults(), honest_opt)
            << "trial=" << trial << " q=" << q << " seed=" << seed;
        // Sanity: the wrapper really is dishonest (at q=0.5 some voluntary
        // evictions must occur on these instances).
        if (q >= 0.5) {
          EXPECT_FALSE(checker.honest());
        }
      }
    }
  }
}

TEST(Theorem4, DishonestyHurtsOnAverage) {
  // Not just "never better": on a hit-friendly workload, random voluntary
  // evictions strictly add faults.
  Rng rng(11);
  const RequestSet rs = random_disjoint_workload(rng, 2, 3, 200);
  SimConfig cfg;
  cfg.cache_size = 6;  // everything fits: honest LRU = compulsory only
  cfg.fault_penalty = 2;

  SelfContainedDishonestLru honest(0.0, 1);
  const Count base = simulate(cfg, rs, honest).total_faults();
  SelfContainedDishonestLru noisy(0.3, 2);
  const Count disturbed = simulate(cfg, rs, noisy).total_faults();
  EXPECT_EQ(base, 6u);  // compulsory
  EXPECT_GT(disturbed, 4 * base);
}

}  // namespace
}  // namespace mcp
