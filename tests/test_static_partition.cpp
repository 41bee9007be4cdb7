// Tests for the static partition strategy sP^B_A
// (strategies/static_partition.hpp).  The central property: for disjoint
// inputs, a static partition decomposes into independent single-core
// problems — part j's fault count equals the sequential fault count of R_j
// with k_j cells, regardless of tau (delays change timing, never one core's
// request order).  This is the decomposition DESIGN.md's partition search
// relies on, so it gets its own property test here.  Runs go through
// run_both_paths, so the object runs on the hook instantiation even where
// simulate() takes the stamp kernel (sP_LRU, sP_CLOCK, ...).
#include "strategies/static_partition.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/simulator.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;
using testing::run_both_paths;
using testing::sim_config;

TEST(StaticPartition, NameIncludesSizes) {
  StaticPartitionStrategy strategy({2, 3}, make_policy_factory("fifo"));
  RequestSet rs;
  rs.add_sequence(RequestSequence{1});
  rs.add_sequence(RequestSequence{2});
  (void)run_both_paths(sim_config(5, 0), rs, strategy);
  EXPECT_EQ(strategy.name(), "sP[2,3]_FIFO");
}

TEST(StaticPartition, RejectsInvalidPartitions) {
  RequestSet rs;
  rs.add_sequence(RequestSequence{1});
  rs.add_sequence(RequestSequence{2});
  // simulate() and the object's own run (Simulator::run) alike.
  Simulator sim(sim_config(5, 0));
  {
    StaticPartitionStrategy wrong_sum({2, 2}, make_policy_factory("lru"));
    EXPECT_THROW((void)simulate(sim_config(5, 0), rs, wrong_sum), ModelError);
    EXPECT_THROW((void)sim.run(rs, wrong_sum), ModelError);
  }
  {
    StaticPartitionStrategy zero_part({5, 0}, make_policy_factory("lru"));
    EXPECT_THROW((void)simulate(sim_config(5, 0), rs, zero_part), ModelError);
    EXPECT_THROW((void)sim.run(rs, zero_part), ModelError);
  }
  {
    StaticPartitionStrategy wrong_cores({5}, make_policy_factory("lru"));
    EXPECT_THROW((void)simulate(sim_config(5, 0), rs, wrong_cores), ModelError);
    EXPECT_THROW((void)sim.run(rs, wrong_cores), ModelError);
  }
}

TEST(StaticPartition, PartsAreIsolated) {
  // Core 0 thrashes its 1-cell part; core 1's working set stays resident in
  // its own part, untouched by core 0's faults.
  RequestSet rs;
  RequestSequence thrash;
  const std::vector<PageId> cycle = {1, 2};
  thrash.append_repeated(cycle, 25);
  rs.add_sequence(std::move(thrash));
  RequestSequence stable;
  const std::vector<PageId> pair = {10, 11};
  stable.append_repeated(pair, 25);
  rs.add_sequence(std::move(stable));

  StaticPartitionStrategy strategy({1, 2}, make_policy_factory("lru"));
  const RunStats stats = run_both_paths(sim_config(3, 2), rs, strategy);
  EXPECT_EQ(stats.core(0).faults, 50u);  // 1 cell, alternating pages
  EXPECT_EQ(stats.core(1).faults, 2u);   // both pages fit
}

// Decomposition property across policies, partitions and tau.
struct DecompositionCase {
  std::string policy;
  Time tau;
};

// Names each case "<policy>_tau<tau>" in gtest output and in the ctest test
// names derived from it.  Without it gtest dumps the struct's bytes, which
// include the std::string's data pointer and so change from build to build.
void PrintTo(const DecompositionCase& c, std::ostream* os) {
  *os << c.policy << "_tau" << c.tau;
}

class PartitionDecomposition
    : public ::testing::TestWithParam<DecompositionCase> {};

TEST_P(PartitionDecomposition, FaultsDecomposePerCore) {
  const auto& param = GetParam();
  const PolicyFactory factory = make_policy_factory(param.policy, /*seed=*/11);
  Rng rng(7000 + param.tau);
  for (int trial = 0; trial < 6; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 3, 5, 80);
    for (const Partition& part :
         {Partition{2, 2, 2}, Partition{1, 2, 3}, Partition{4, 1, 1}}) {
      StaticPartitionStrategy strategy(part, factory);
      const RunStats stats =
          run_both_paths(sim_config(6, param.tau), rs, strategy);
      for (CoreId j = 0; j < 3; ++j) {
        const Count expected =
            single_core_policy_faults(rs.sequence(j), part[j], factory);
        EXPECT_EQ(stats.core(j).faults, expected)
            << param.policy << " tau=" << param.tau << " trial=" << trial
            << " part=" << partition_to_string(part) << " core=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyTauGrid, PartitionDecomposition,
    ::testing::Values(DecompositionCase{"lru", 0}, DecompositionCase{"lru", 3},
                      DecompositionCase{"fifo", 0}, DecompositionCase{"fifo", 2},
                      DecompositionCase{"lfu", 1}, DecompositionCase{"mark", 2},
                      DecompositionCase{"clock", 1}));

TEST(StaticPartition, FitfPerPartMatchesBelady) {
  // sP^B_FITF on disjoint inputs is the per-part optimum sP^B_OPT.
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 2, 6, 120);
    const Partition part = {3, 4};
    auto strategy = StaticPartitionStrategy::fitf(part);
    const RunStats stats = simulate(sim_config(7, 2), rs, *strategy);
    for (CoreId j = 0; j < 2; ++j) {
      EXPECT_EQ(stats.core(j).faults, belady_faults(rs.sequence(j), part[j]))
          << "trial=" << trial << " core=" << j;
    }
  }
}

TEST(StaticPartition, LemmaOneUpperBoundHolds) {
  // Lemma 1 (upper bound): sP^B_LRU <= max_j k_j * sP^B_OPT on every input.
  Rng rng(404);
  for (int trial = 0; trial < 8; ++trial) {
    const RequestSet rs = random_disjoint_workload(rng, 2, 7, 150);
    const Partition part = {3, 5};
    StaticPartitionStrategy lru(part, make_policy_factory("lru"));
    const RunStats lru_stats = run_both_paths(sim_config(8, 1), rs, lru);
    Count opt_faults = 0;
    for (CoreId j = 0; j < 2; ++j) {
      opt_faults += belady_faults(rs.sequence(j), part[j]);
    }
    EXPECT_LE(lru_stats.total_faults(), 5u * opt_faults) << "trial=" << trial;
  }
}

TEST(StaticPartition, HitsInAnotherCoresPartStillCount) {
  // Non-disjoint input: core 1 requests the page core 0 faulted in.  The
  // partition governs placement, not lookup, so core 1 hits.
  RequestSet rs;
  rs.add_sequence(RequestSequence{5, 5, 5});
  rs.add_sequence(RequestSequence{5, 5, 5});
  StaticPartitionStrategy strategy({1, 1}, make_policy_factory("lru"));
  const RunStats stats = run_both_paths(sim_config(2, 1), rs, strategy);
  // Core 0 faults once; core 1's first request joins the in-flight fetch
  // (one more fault); afterwards everyone hits page 5 in core 0's part.
  EXPECT_EQ(stats.total_faults(), 2u);
  EXPECT_EQ(stats.total_hits(), 4u);
}

}  // namespace
}  // namespace mcp
