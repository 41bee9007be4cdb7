// Contract and invariant tests for the simulator: misbehaving strategies
// must be rejected loudly, and bookkeeping invariants must hold across
// randomized runs of every built-in strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/batch_engine.hpp"
#include "core/simulator.hpp"
#include "offline/replay.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/adaptive_partition.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"
#include "workload/workload.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;
using testing::sim_config;

// ---------------------------------------------------------------------------
// Misbehaving strategies are rejected.
// ---------------------------------------------------------------------------

/// Configurable bad actor for contract tests.
class MisbehavingStrategy final : public CacheStrategy {
 public:
  enum class Mode {
    kEvictAbsent,     ///< evicts a page id past the engine's page index
    kEvictIncoming,   ///< evicts the very page that is faulting in
    kEvictTwice,      ///< returns the same victim twice
    kNeverEvict,      ///< returns no victim even when the cache is full
    kEvictFetching,   ///< evicts a page whose cell is still reserved
  };
  explicit MisbehavingStrategy(Mode mode) : mode_(mode) {}

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
      switch (mode_) {
        case Mode::kEvictAbsent:
          evictions.push_back(99999);
          break;
        case Mode::kEvictIncoming:
          evictions.push_back(ctx.page);
          break;
        case Mode::kEvictTwice: {
          const PageId victim = lru_->victim(
              ctx, [&cache](PageId page) { return cache.contains(page); });
          evictions.push_back(victim);
          evictions.push_back(victim);
          break;
        }
        case Mode::kNeverEvict:
          break;
        case Mode::kEvictFetching: {
          // The page admitted last is still in flight if the strategy still
          // tracks it but the cache does not hold it present: a reserved
          // cell.
          if (lru_->contains(last_admitted_) &&
              !cache.contains(last_admitted_)) {
            evictions.push_back(last_admitted_);
          } else {  // fall back to a legal victim
            const PageId victim = lru_->victim(
                ctx, [&cache](PageId page) { return cache.contains(page); });
            lru_->on_remove(victim);
            evictions.push_back(victim);
          }
          break;
        }
      }
    }
    if (lru_->contains(ctx.page)) lru_->on_remove(ctx.page);
    lru_->on_insert(ctx.page, ctx);
    last_admitted_ = ctx.page;
  }
  [[nodiscard]] std::string name() const override { return "misbehaving"; }

 private:
  Mode mode_;
  PageId last_admitted_ = kInvalidPage;
  std::size_t cache_size_ = 0;
  std::unique_ptr<LruPolicy> lru_;
};

class MisbehaviorRejected
    : public ::testing::TestWithParam<MisbehavingStrategy::Mode> {};

TEST_P(MisbehaviorRejected, SimulatorThrowsModelError) {
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2, 3, 4, 1, 2});  // forces evictions
  rs.add_sequence(RequestSequence{11, 12, 13, 14});
  MisbehavingStrategy strategy(GetParam());
  Simulator sim(sim_config(3, 2));
  EXPECT_THROW((void)sim.run(rs, strategy), ModelError);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MisbehaviorRejected,
    ::testing::Values(MisbehavingStrategy::Mode::kEvictAbsent,
                      MisbehavingStrategy::Mode::kEvictIncoming,
                      MisbehavingStrategy::Mode::kEvictTwice,
                      MisbehavingStrategy::Mode::kNeverEvict));

TEST(MisbehaviorFetching, EvictingReservedCellThrows) {
  // Two cores so that a fault of core 1 can try to evict core 0's
  // still-fetching page.
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2});
  rs.add_sequence(RequestSequence{11, 12, 13, 14});
  MisbehavingStrategy strategy(MisbehavingStrategy::Mode::kEvictFetching);
  Simulator sim(sim_config(2, 5));
  EXPECT_THROW((void)sim.run(rs, strategy), ModelError);
}

// ---------------------------------------------------------------------------
// The step loop's cache state as strategies see it (CacheView) and as the
// step loop validates their proposals, run through `simulate`.
// ---------------------------------------------------------------------------

/// Proposes `victim` whenever a fault finds the cache full; otherwise
/// evicts nothing.  Records what the CacheView showed it.
class FixedVictim final : public CacheStrategy {
 public:
  explicit FixedVictim(PageId victim) : victim_(victim) {}
  void attach(const SimConfig&, std::size_t, const RequestSet*) override {}
  void on_hit(const AccessContext&) override {}
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    capacity_at_fault.push_back(cache.capacity());
    occupied_at_fault.push_back(cache.occupied());
    present_at_fault.push_back(cache.present_pages());
    contained_incoming = contained_incoming || cache.contains(ctx.page);
    if (needs_cell && cache.occupied() == cache.capacity()) {
      evictions.push_back(victim_);
    }
  }
  void on_fetch_complete(PageId page, CoreId core, Time now) override {
    landings.push_back({page, core, now});
  }
  void on_step_begin(Time, const CacheView& cache,
                     std::vector<PageId>&) override {
    present_at_step.push_back(cache.present_pages());
  }
  [[nodiscard]] std::string name() const override { return "fixed-victim"; }

  struct Landing {
    PageId page;
    CoreId core;
    Time now;
    bool operator==(const Landing&) const = default;
  };
  std::vector<Landing> landings;
  std::vector<std::size_t> capacity_at_fault;
  std::vector<std::size_t> occupied_at_fault;
  std::vector<std::vector<PageId>> present_at_fault;
  std::vector<std::vector<PageId>> present_at_step;
  bool contained_incoming = false;

 private:
  PageId victim_;
};

TEST(CacheState, StartsEmpty) {
  // The first step sees an empty cache of the configured capacity, and no
  // page is present when it first faults.
  RequestSet rs;
  rs.add_sequence({1, 2});
  FixedVictim strategy(kInvalidPage);
  (void)simulate(sim_config(4, 0), rs, strategy);
  ASSERT_FALSE(strategy.present_at_step.empty());
  EXPECT_TRUE(strategy.present_at_step[0].empty());
  EXPECT_EQ(strategy.capacity_at_fault, std::vector<std::size_t>({4, 4}));
  ASSERT_EQ(strategy.occupied_at_fault.size(), 2u);
  EXPECT_EQ(strategy.occupied_at_fault[0], 0u);
  EXPECT_TRUE(strategy.present_at_fault[0].empty());
  EXPECT_FALSE(strategy.contained_incoming);
}

TEST(CacheState, RejectsZeroCapacity) {
  EXPECT_THROW(Simulator sim(sim_config(0, 0)), ModelError);
  RequestSet rs;
  rs.add_sequence({1});
  FixedStream stream(rs);
  FixedVictim strategy(kInvalidPage);
  EXPECT_THROW((void)BatchEngine::run_strategy(sim_config(0, 0), stream,
                                               strategy, &rs, {}),
               ModelError);
}

TEST(CacheState, FetchLifecycle) {
  // K=2, tau=5.  Core 0's fetch of 7 holds a cell from t=0 but 7 is not
  // present (a request to it would not hit) when core 1 faults on 8 in the
  // same step.  Both land at t=6, nothing earlier; core 1's request for 7
  // at t=6 then hits.
  RequestSet rs;
  rs.add_sequence({7});
  rs.add_sequence({8, 7});
  FixedVictim strategy(kInvalidPage);
  const RunStats stats = simulate(sim_config(2, 5), rs, strategy);
  EXPECT_EQ(strategy.occupied_at_fault, std::vector<std::size_t>({0, 1}));
  ASSERT_EQ(strategy.present_at_fault.size(), 2u);
  EXPECT_TRUE(strategy.present_at_fault[1].empty());  // 7 still in flight
  EXPECT_FALSE(strategy.contained_incoming);
  // Step begins at t=0 (empty), t=6 (both landed) and t=7 (core 1 ends
  // after its hit); the fast-forward skips the steps in between.
  ASSERT_EQ(strategy.present_at_step.size(), 3u);
  EXPECT_TRUE(strategy.present_at_step[0].empty());
  EXPECT_EQ(strategy.present_at_step[1], std::vector<PageId>({7, 8}));
  ASSERT_EQ(strategy.landings.size(), 2u);
  EXPECT_EQ(strategy.landings[0].now, 6u);
  EXPECT_EQ(strategy.landings[1].now, 6u);
  EXPECT_EQ(stats.total_faults(), 2u);
  EXPECT_EQ(stats.total_hits(), 1u);
}

TEST(CacheState, ReservedCellCannotBeEvicted) {
  // K=1: core 0's fetch of 7 reserves the only cell until t=4, so core 1's
  // same-step fault may not evict it.
  RequestSet rs;
  rs.add_sequence({7});
  rs.add_sequence({1});
  FixedVictim strategy(/*victim=*/7);
  EXPECT_THROW((void)simulate(sim_config(1, 3), rs, strategy), ModelError);

  // Once 7 has landed, the same proposal evicts it.
  RequestSet landed;
  landed.add_sequence({7, 1});
  FixedVictim later(/*victim=*/7);
  const RunStats stats = simulate(sim_config(1, 3), landed, later);
  EXPECT_EQ(stats.total_faults(), 2u);
  EXPECT_EQ(later.occupied_at_fault, std::vector<std::size_t>({0, 1}));
}

TEST(CacheState, EvictAbsentPageThrows) {
  // Page 4 is inside the run's page index but holds no cell when page 3's
  // fault finds the cache full.
  RequestSet rs;
  rs.add_sequence({1, 2, 3, 4});
  FixedVictim strategy(/*victim=*/4);
  EXPECT_THROW((void)simulate(sim_config(2, 0), rs, strategy), ModelError);
}

TEST(CacheState, EvictPastPageIndexThrows) {
  // A proposed id past the page index is rejected, not read out of bounds.
  RequestSet rs;
  rs.add_sequence({1, 2, 3});
  for (const PageId victim : {PageId{99999}, kInvalidPage}) {
    FixedVictim strategy(victim);
    EXPECT_THROW((void)simulate(sim_config(2, 0), rs, strategy), ModelError)
        << victim;
  }
}

TEST(CacheState, BeginFetchOnFullCacheThrows) {
  // K=1: core 0's fetch of 1 reserves the only cell, so core 1's same-step
  // fault on 2 finds the cache full with nothing evictable.  A strategy
  // that proposes no victim leaves the fetch without a cell.
  RequestSet rs;
  rs.add_sequence({1});
  rs.add_sequence({2});
  MisbehavingStrategy strategy(MisbehavingStrategy::Mode::kNeverEvict);
  std::string message = "no error";
  try {
    (void)simulate(sim_config(1, 1), rs, strategy);
  } catch (const ModelError& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("no free cell"), std::string::npos) << message;
}

TEST(CacheState, InFlightPageTakesNoSecondCell) {
  // K=1: core 0's fault on 5 takes the only cell; core 1's same-step
  // request for 5 joins that fetch (a fault, needs_cell=false) instead of
  // fetching the page a second time.
  RequestSet rs;
  rs.add_sequence({5});
  rs.add_sequence({5});
  FixedVictim strategy(kInvalidPage);
  const RunStats stats = simulate(sim_config(1, 3), rs, strategy);
  EXPECT_EQ(stats.total_faults(), 2u);
  EXPECT_EQ(strategy.occupied_at_fault, std::vector<std::size_t>({0, 1}));
  EXPECT_EQ(strategy.landings.size(), 1u);
}

TEST(CacheState, CompleteFetchesBatches) {
  // Three cores fault at t=0 on pages 3, 1, 9 in core order; with tau=2 all
  // three land together at t=3 and reach the strategy in ascending page id,
  // each with the core whose fault started its fetch.  A later fetch lands
  // alone.
  RequestSet rs;
  rs.add_sequence({3});
  rs.add_sequence({1});
  rs.add_sequence({9, 4});
  FixedVictim strategy(kInvalidPage);
  (void)simulate(sim_config(4, 2), rs, strategy);
  const std::vector<FixedVictim::Landing> expected = {
      {1, 1, 3}, {3, 0, 3}, {9, 2, 3}, {4, 2, 6}};
  EXPECT_EQ(strategy.landings, expected);
}

TEST(CacheState, FindReportsMetadata) {
  // K=4, tau=3.  Core 1's fault on 9 at t=4 starts its fetch (ready at
  // t=8); core 0's request for 9 at t=6 joins it.  The landing reports the
  // core that started the fetch and the step it was due, not the joiner.
  RequestSet rs;
  rs.add_sequence({1, 1, 1, 9});
  rs.add_sequence({5, 9});
  FixedVictim strategy(kInvalidPage);
  const RunStats stats = simulate(sim_config(4, 3), rs, strategy);
  const std::vector<FixedVictim::Landing> expected = {
      {1, 0, 4}, {5, 1, 4}, {9, 1, 8}};
  EXPECT_EQ(strategy.landings, expected);
  EXPECT_EQ(stats.total_faults(), 4u);  // 1, 5, 9 and the join
  EXPECT_EQ(stats.total_hits(), 2u);
}

TEST(CacheState, SnapshotsAreSorted) {
  // Pages fault in as 9, 2, 5; the view lists the present ones ascending.
  RequestSet rs;
  rs.add_sequence({9, 2, 5, 1});
  FixedVictim strategy(kInvalidPage);
  (void)simulate(sim_config(4, 0), rs, strategy);
  ASSERT_EQ(strategy.present_at_fault.size(), 4u);
  EXPECT_EQ(strategy.present_at_fault[3], std::vector<PageId>({2, 5, 9}));
}

// ---------------------------------------------------------------------------
// Replay error paths.
// ---------------------------------------------------------------------------

TEST(ReplayErrors, ScheduleTooShortThrows) {
  OfflineInstance inst;
  inst.requests.add_sequence(RequestSequence{1, 2, 3});
  inst.cache_size = 1;
  inst.tau = 0;
  EXPECT_THROW((void)replay_schedule(inst, {kInvalidPage}), ModelError);
}

TEST(ReplayErrors, SkippingRequiredEvictionThrows) {
  OfflineInstance inst;
  inst.requests.add_sequence(RequestSequence{1, 2});
  inst.cache_size = 1;
  inst.tau = 0;
  // Second fault requires an eviction; the schedule claims none needed.
  EXPECT_THROW((void)replay_schedule(inst, {kInvalidPage, kInvalidPage}),
               ModelError);
}

TEST(ReplayErrors, EvictingAbsentPageThrows) {
  OfflineInstance inst;
  inst.requests.add_sequence(RequestSequence{1, 2});
  inst.cache_size = 1;
  inst.tau = 0;
  EXPECT_THROW((void)replay_schedule(inst, {kInvalidPage, 42}), ModelError);
}

TEST(ReplayErrors, ValidScheduleWorks) {
  OfflineInstance inst;
  inst.requests.add_sequence(RequestSequence{1, 2});
  inst.cache_size = 1;
  inst.tau = 0;
  const RunStats stats = replay_schedule(inst, {kInvalidPage, 1});
  EXPECT_EQ(stats.total_faults(), 2u);
}

// ---------------------------------------------------------------------------
// Bookkeeping invariants across strategies and workloads.
// ---------------------------------------------------------------------------

/// Observer checking event-level conservation laws during the run.
class InvariantObserver final : public SimObserver {
 public:
  void on_hit(const AccessContext& ctx) override { ++events_; last_time_ok(ctx.now); }
  void on_fault(const AccessContext& ctx) override {
    ++events_;
    ++faults_;
    last_time_ok(ctx.now);
  }
  void on_evict(PageId, CoreId, Time now, EvictionCause) override {
    ++evictions_;
    last_time_ok(now);
  }
  void on_fetch_complete(PageId, CoreId, Time now) override {
    ++completions_;
    last_time_ok(now);
  }
  void last_time_ok(Time now) {
    EXPECT_GE(now, last_seen_);
    last_seen_ = now;
  }

  Count events_ = 0;
  Count faults_ = 0;
  Count evictions_ = 0;
  Count completions_ = 0;
  Time last_seen_ = 0;
};

enum class StrategyKind { kSharedLru, kSharedMark, kEvenPartition, kLemma3,
                          kUtility, kFairness };

std::unique_ptr<CacheStrategy> build(StrategyKind kind, std::size_t cache,
                                     std::size_t cores) {
  switch (kind) {
    case StrategyKind::kSharedLru:
      return std::make_unique<SharedStrategy>(make_policy_factory("lru"));
    case StrategyKind::kSharedMark:
      return std::make_unique<SharedStrategy>(make_policy_factory("mark"));
    case StrategyKind::kEvenPartition:
      return std::make_unique<StaticPartitionStrategy>(
          even_partition(cache, cores), make_policy_factory("lru"));
    case StrategyKind::kLemma3:
      return std::make_unique<Lemma3DynamicPartition>();
    case StrategyKind::kUtility:
      return std::make_unique<UtilityPartitionStrategy>(
          make_policy_factory("lru"), 64);
    case StrategyKind::kFairness:
      return std::make_unique<FairnessPartitionStrategy>(
          make_policy_factory("lru"), 64);
  }
  return nullptr;
}

class ConservationLaws : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ConservationLaws, HoldOnRandomWorkloads) {
  Rng rng(31337);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t cores = 2 + rng.below(3);
    const std::size_t cache = 4 * cores;
    const RequestSet rs = random_disjoint_workload(rng, cores, 6, 300);
    const auto strategy = build(GetParam(), cache, cores);
    InvariantObserver observer;
    Simulator sim(sim_config(cache, 1 + rng.below(4)));
    sim.add_observer(&observer);
    const RunStats stats = sim.run(rs, *strategy);

    // Every request accounted, exactly once.
    EXPECT_EQ(stats.total_requests(), rs.total_requests());
    EXPECT_EQ(stats.total_hits() + stats.total_faults(), stats.total_requests());
    EXPECT_EQ(observer.events_, stats.total_requests());
    EXPECT_EQ(observer.faults_, stats.total_faults());
    // Disjoint input: every fault starts a fetch that completes.
    EXPECT_EQ(observer.completions_, stats.total_faults());
    // Cells: evictions never exceed faults plus voluntary repartitions...
    // at minimum they can't exceed insertions.
    EXPECT_LE(observer.evictions_, observer.faults_ + 64);

    for (CoreId j = 0; j < cores; ++j) {
      const CoreStats& c = stats.core(j);
      EXPECT_EQ(c.fault_times.size(), c.faults);
      EXPECT_TRUE(std::is_sorted(c.fault_times.begin(), c.fault_times.end()));
      EXPECT_LE(c.completion_time, stats.makespan());
      EXPECT_EQ(c.requests, rs.sequence(j).size());
    }
    EXPECT_GE(stats.end_time, stats.makespan());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ConservationLaws,
    ::testing::Values(StrategyKind::kSharedLru, StrategyKind::kSharedMark,
                      StrategyKind::kEvenPartition, StrategyKind::kLemma3,
                      StrategyKind::kUtility, StrategyKind::kFairness));

// ---------------------------------------------------------------------------
// Differential check against the textbook single-core baseline.
// ---------------------------------------------------------------------------

// With p = 1 the paper's model (Section 3) reduces to classic sequential
// paging: tau only stretches time, it cannot change which requests fault.
// So SharedStrategy+LRU on one core must produce exactly the classic LRU
// fault count, for every cache size and any tau — cross-validating the full
// multicore simulator against the independent single-core runner.
TEST(SingleCoreDifferential, SharedLruMatchesClassicLru) {
  Rng rng(0xD1FF);
  const PolicyFactory lru = make_policy_factory("lru");
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t universe = 4 + rng.below(10);
    RequestSet rs;
    {
      RequestSequence seq;
      for (int i = 0; i < 400; ++i) {
        seq.push_back(static_cast<PageId>(rng.below(universe)));
      }
      rs.add_sequence(std::move(seq));
    }
    const Time tau = rng.below(6);
    for (std::size_t k = 1; k <= universe + 2; ++k) {
      const Count expected = single_core_policy_faults(rs.sequence(0), k, lru);
      SharedStrategy strategy(lru);
      const Count simulated =
          simulate(sim_config(k, tau), rs, strategy).total_faults();
      EXPECT_EQ(simulated, expected)
          << "trial=" << trial << " k=" << k << " tau=" << tau;
    }
  }
}

TEST(SingleCoreDifferential, SharedLruNeverBeatsBelady) {
  Rng rng(0xB31A);
  const PolicyFactory lru = make_policy_factory("lru");
  RequestSet rs;
  {
    RequestSequence seq;
    for (int i = 0; i < 300; ++i) {
      seq.push_back(static_cast<PageId>(rng.below(9)));
    }
    rs.add_sequence(std::move(seq));
  }
  for (std::size_t k = 1; k <= 10; ++k) {
    SharedStrategy strategy(lru);
    const Count online = simulate(sim_config(k, 2), rs, strategy).total_faults();
    EXPECT_GE(online, belady_faults(rs.sequence(0), k)) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Fast-forward exactness with huge tau.
// ---------------------------------------------------------------------------

TEST(FastForward, HugeTauTimingIsExact) {
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2, 3});
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats stats = simulate(sim_config(4, 1000), rs, lru);
  const std::vector<Time> expected = {0, 1001, 2002};
  EXPECT_EQ(stats.core(0).fault_times, expected);
  EXPECT_EQ(stats.core(0).completion_time, 3002u);
}

TEST(FastForward, MixedTauCoresInterleaveCorrectly) {
  // Core 1's single page hits from t=1001 even while core 0 crawls.
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2});
  RequestSequence ones;
  const std::vector<PageId> solo = {9};
  ones.append_repeated(solo, 5);
  rs.add_sequence(std::move(ones));
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats stats = simulate(sim_config(4, 1000), rs, lru);
  EXPECT_EQ(stats.core(1).faults, 1u);
  EXPECT_EQ(stats.core(1).completion_time, 1004u);  // fault 0..1000, hits 1001..1004
  EXPECT_EQ(stats.core(0).completion_time, 2001u);  // faults at 0 and 1001
}

}  // namespace
}  // namespace mcp
