// The sweep engine's determinism contract: the same sweep produces
// bit-identical results for max_threads = 1 (serial), 2, and 0 (all
// hardware workers), including the per-cell RNG-splitting path.  This is
// what makes every bench number in the repo reproducible from its master
// seed alone, on any machine.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batch_state.hpp"
#include "core/simulator.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;
using testing::sim_config;

// Flattens everything RunStats records into one comparable word stream, so
// "bit-identical" is checked on the full observable result, not a summary.
std::vector<std::uint64_t> fingerprint(const RunStats& stats) {
  std::vector<std::uint64_t> words;
  words.push_back(stats.num_cores());
  words.push_back(stats.end_time);
  for (CoreId j = 0; j < stats.num_cores(); ++j) {
    const CoreStats& core = stats.core(j);
    words.push_back(core.hits);
    words.push_back(core.faults);
    words.push_back(core.requests);
    words.push_back(core.completion_time);
    words.insert(words.end(), core.fault_times.begin(),
                 core.fault_times.end());
  }
  return words;
}

// The sweep under test: each cell draws its whole configuration (core
// count, tau, trace) from the per-cell RNG stream and runs a randomized
// simulation — the exact shape of the bench grids.
std::vector<std::vector<std::uint64_t>> run_sweep(std::uint64_t master_seed,
                                                  std::size_t max_threads) {
  SweepRunner sweep(SweepOptions{master_seed, max_threads});
  return sweep.run(12, [](std::size_t cell, Rng& rng) {
    const std::size_t cores = 2 + rng.below(3);
    const std::size_t cache = 3 * cores + rng.below(4);
    const Time tau = rng.below(5);
    const RequestSet rs = random_disjoint_workload(rng, cores, 6, 200);
    // Alternate strategy families across cells, like a real grid.
    if (cell % 2 == 0) {
      SharedStrategy strategy(make_policy_factory("lru"));
      return fingerprint(simulate(sim_config(cache, tau), rs, strategy));
    }
    StaticPartitionStrategy strategy(even_partition(cache, cores),
                                     make_policy_factory("mark", rng()));
    return fingerprint(simulate(sim_config(cache, tau), rs, strategy));
  });
}

TEST(SweepDeterminism, BitIdenticalAcrossWorkerCounts) {
  const std::uint64_t seed = 0xDE7E12;
  const auto serial = run_sweep(seed, 1);
  const auto two = run_sweep(seed, 2);
  const auto hardware = run_sweep(seed, 0);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, hardware);
}

TEST(SweepDeterminism, RerunIsIdenticalAndSeedMatters) {
  const auto first = run_sweep(99, 0);
  const auto again = run_sweep(99, 0);
  EXPECT_EQ(first, again);
  const auto other = run_sweep(100, 0);
  EXPECT_NE(first, other);
}

TEST(SweepCellRng, StreamsAreReproducibleAndDistinct) {
  Rng a = sweep_cell_rng(7, 3);
  Rng b = sweep_cell_rng(7, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());

  // Distinct cells (and distinct seeds) give distinct streams.
  Rng c = sweep_cell_rng(7, 4);
  Rng d = sweep_cell_rng(8, 3);
  Rng base = sweep_cell_rng(7, 3);
  bool c_differs = false;
  bool d_differs = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = base();
    c_differs = c_differs || c() != word;
    d_differs = d_differs || d() != word;
  }
  EXPECT_TRUE(c_differs);
  EXPECT_TRUE(d_differs);
}

TEST(SweepCellRng, CellStreamIndependentOfConsumptionElsewhere) {
  // A cell's stream must not depend on how much randomness other cells
  // consume — the property that makes worker count irrelevant.
  Rng cell5 = sweep_cell_rng(42, 5);
  const std::uint64_t expected = cell5();
  Rng cell4 = sweep_cell_rng(42, 4);
  for (int i = 0; i < 1000; ++i) (void)cell4();  // a greedy neighbour
  Rng cell5_again = sweep_cell_rng(42, 5);
  EXPECT_EQ(cell5_again(), expected);
}

// The batch-kernel job path (run_jobs) extends the contract: results must
// be bit-identical for any worker count.
TEST(SweepDeterminism, RunJobsBitIdenticalAcrossWorkers) {
  Rng rng(0xBA7C4);
  std::vector<RequestSet> workloads;
  workloads.push_back(random_disjoint_workload(rng, 2, 6, 150));
  workloads.push_back(random_disjoint_workload(rng, 3, 5, 90));
  workloads.push_back(random_disjoint_workload(rng, 4, 7, 200));

  std::vector<SimJob> jobs;
  for (const RequestSet& rs : workloads) {
    for (const Time tau : {Time{0}, Time{2}, Time{5}}) {
      const std::size_t cache = 3 * rs.num_cores();
      SimJob shared_job;
      shared_job.config = sim_config(cache, tau);
      shared_job.requests = &rs;
      shared_job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
      jobs.push_back(std::move(shared_job));
      SimJob part_job;
      part_job.config = sim_config(cache, tau);
      part_job.requests = &rs;
      part_job.strategy = BatchStrategySpec::static_partition(
          even_partition(cache, rs.num_cores()), BatchPolicy::kFifo);
      jobs.push_back(std::move(part_job));
    }
  }

  std::vector<std::vector<std::uint64_t>> baseline;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SweepOptions opts;
    opts.max_threads = workers;
    SweepRunner sweep(opts);
    const std::vector<RunStats> stats = sweep.run_jobs(jobs);
    std::vector<std::vector<std::uint64_t>> prints;
    prints.reserve(stats.size());
    for (const RunStats& s : stats) prints.push_back(fingerprint(s));
    if (baseline.empty()) {
      baseline = std::move(prints);
      ASSERT_EQ(baseline.size(), jobs.size());
    } else {
      EXPECT_EQ(prints, baseline) << "workers=" << workers;
    }
  }
}

TEST(SweepTiming, ReportsCellsAndRate) {
  SweepRunner sweep(SweepOptions{1, 0});
  (void)sweep.run(32, [](std::size_t i, Rng&) { return i; });
  const SweepTiming& timing = sweep.last_timing();
  EXPECT_EQ(timing.cells, 32u);
  EXPECT_GE(timing.wall_seconds, 0.0);
  EXPECT_GE(timing.cells_per_second(), 0.0);
  const std::string json = timing.json("unit");
  EXPECT_NE(json.find("\"sweep\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\":32"), std::string::npos);
  EXPECT_NE(json.find("cells_per_second"), std::string::npos);
}

TEST(SweepRunner, EmptySweepIsFine) {
  SweepRunner sweep;
  const std::vector<int> results =
      sweep.run(0, [](std::size_t, Rng&) { return 1; });
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(sweep.last_timing().cells, 0u);
}

}  // namespace
}  // namespace mcp
