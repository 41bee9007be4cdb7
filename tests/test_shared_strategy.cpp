// Tests for the shared strategy S_A (strategies/shared.hpp), including the
// cross-validation that a single-core run through the full multicore
// simulator matches the classic sequential fault counts.  Runs go through
// run_both_paths, so the object runs on the hook instantiation even where
// simulate() takes the stamp kernel (S_LRU, S_CLOCK, ...).
#include "strategies/shared.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/simulator.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;
using testing::random_shared_workload;
using testing::run_both_paths;
using testing::sim_config;

TEST(SharedStrategy, NameReflectsPolicy) {
  SharedStrategy lru(make_policy_factory("lru"));
  RequestSet rs;
  rs.add_sequence(RequestSequence{1});
  (void)run_both_paths(sim_config(2, 0), rs, lru);
  EXPECT_EQ(lru.name(), "S_LRU");
}

TEST(SharedStrategy, EvictsOnlyWhenFull) {
  // K=3, four distinct pages: exactly one eviction.
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2, 3, 4});
  SharedStrategy lru(make_policy_factory("lru"));

  class EvictCounter : public SimObserver {
   public:
    void on_evict(PageId, CoreId, Time, EvictionCause cause) override {
      ++evictions;
      EXPECT_EQ(cause, EvictionCause::kFault);
    }
    int evictions = 0;
  } counter;

  Simulator sim(sim_config(3, 1));
  sim.add_observer(&counter);
  (void)sim.run(rs, lru);
  EXPECT_EQ(counter.evictions, 1);
}

// The multicore simulator restricted to p=1 must agree exactly with the
// tight single-core loop, for every policy and regardless of tau (delays
// shift time, never single-core hit/miss outcomes).
class SingleCoreAgreement : public ::testing::TestWithParam<std::string> {};

TEST_P(SingleCoreAgreement, SimulatorMatchesSequentialRunner) {
  const PolicyFactory factory = make_policy_factory(GetParam(), /*seed=*/3);
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 1, 8, 150);
    for (std::size_t k : {2u, 4u, 7u}) {
      for (Time tau : {Time{0}, Time{3}}) {
        SharedStrategy strategy(factory);
        const RunStats stats =
            run_both_paths(sim_config(k, tau), rs, strategy);
        const Count expected =
            single_core_policy_faults(rs.sequence(0), k, factory);
        EXPECT_EQ(stats.total_faults(), expected)
            << GetParam() << " trial=" << trial << " k=" << k << " tau=" << tau;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SingleCoreAgreement,
                         ::testing::Values("lru", "lru-scan", "slru", "fifo",
                                           "clock", "lfu", "mru", "random",
                                           "mark"));

TEST(SharedStrategy, FitfMatchesBeladyOnSingleCore) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 1, 10, 200);
    for (std::size_t k : {2u, 5u, 9u}) {
      auto fitf = SharedStrategy::fitf();
      const RunStats stats = simulate(sim_config(k, 2), rs, *fitf);
      EXPECT_EQ(stats.total_faults(), belady_faults(rs.sequence(0), k))
          << "trial=" << trial << " k=" << k;
    }
  }
}

TEST(SharedStrategy, FitfRequiresMaterializedRequests) {
  auto fitf = SharedStrategy::fitf();
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2});
  FixedStream stream(rs);
  Simulator sim(sim_config(2, 0));
  EXPECT_THROW((void)sim.run_stream(stream, *fitf, nullptr), ModelError);
}

TEST(SharedStrategy, MulticoreFaultsBoundedByCompulsoryAndTotal) {
  Rng rng(2025);
  for (int trial = 0; trial < 8; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 3, 6, 100);
    SharedStrategy lru(make_policy_factory("lru"));
    const RunStats stats = run_both_paths(sim_config(9, 1), rs, lru);
    EXPECT_GE(stats.total_faults(), static_cast<Count>(rs.universe().size()));
    EXPECT_LE(stats.total_faults(), static_cast<Count>(rs.total_requests()));
    EXPECT_EQ(stats.total_requests(), static_cast<Count>(rs.total_requests()));
  }
}

TEST(SharedStrategy, NonDisjointWorkloadsBenefitFromSharing) {
  // All cores walk the same small working set: once resident, everyone hits.
  RequestSet rs;
  for (int j = 0; j < 3; ++j) {
    RequestSequence seq;
    const std::vector<PageId> block = {1, 2, 3};
    seq.append_repeated(block, 20);
    rs.add_sequence(std::move(seq));
  }
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats stats = run_both_paths(sim_config(4, 2), rs, lru);
  // Compulsory misses (some may be charged per-core while a fetch is in
  // flight), then hits for everyone.
  EXPECT_LE(stats.total_faults(), 9u);
  EXPECT_GE(stats.total_hits(), 150u);
}

TEST(SharedStrategy, RandomSharedWorkloadRunsCleanly) {
  Rng rng(4);
  const RequestSet rs = random_shared_workload(rng, 4, 12, 120);
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats stats = run_both_paths(sim_config(8, 1), rs, lru);
  EXPECT_EQ(stats.total_requests(), 480u);
}

}  // namespace
}  // namespace mcp
