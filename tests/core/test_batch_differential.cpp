// Differential test battery for the stamp kernels (core/batch_engine.hpp):
// for every batchable strategy x workload x tau x shared-fetch cell, a
// kernel must produce RunStats bit-equal to the independent reference step
// loop (tests/reference_engine.hpp) driving the strategy objects over the
// list/map oracle policies (tests/reference_policies.hpp) — hits, faults,
// fault timelines, completion times, end time and step count — whether it
// simulates a whole job at once or is fed the trace in chunks and parks
// mid-step wherever the buffered requests run out.  The same strategies
// over the src/policies objects, run by the hook instantiation of the same
// step loop (BatchEngine::run_strategy), must equal the stamp kernels too,
// and so must simulate(), which runs them on the kernels.  Error behaviour
// (reserved-full cache, max_steps abort) must match, including for the
// static-partition jobs run_jobs composes from shared per-core runs.
#include "core/batch_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "reference_engine.hpp"
#include "reference_policies.hpp"
#include "strategies/partition.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"
#include "workload/workload.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;
using testing::random_shared_workload;

void expect_same_stats(const RunStats& batched, const RunStats& scalar,
                       const std::string& label) {
  ASSERT_EQ(batched.num_cores(), scalar.num_cores()) << label;
  EXPECT_EQ(batched.end_time, scalar.end_time) << label;
  EXPECT_EQ(batched.sim_steps, scalar.sim_steps) << label;
  for (CoreId j = 0; j < batched.num_cores(); ++j) {
    const CoreStats& a = batched.core(j);
    const CoreStats& b = scalar.core(j);
    EXPECT_EQ(a.hits, b.hits) << label << " core=" << j;
    EXPECT_EQ(a.faults, b.faults) << label << " core=" << j;
    EXPECT_EQ(a.requests, b.requests) << label << " core=" << j;
    EXPECT_EQ(a.completion_time, b.completion_time) << label << " core=" << j;
    EXPECT_EQ(a.fault_times, b.fault_times) << label << " core=" << j;
  }
}

/// The kernel policy of the src/policies object `name` builds.
BatchPolicy batch_policy(const std::string& name) {
  return make_policy_factory(name)()->batch_policy().value();
}

/// The list/map oracle of policy `name` (tests/reference_policies.hpp).  It
/// names no kernel policy, so strategies over it run as objects anywhere.
PolicyFactory oracle_factory(const std::string& name) {
  namespace oracle = testing::policy_oracle;
  if (name == "lru") return [] { return std::make_unique<oracle::LruPolicy>(); };
  if (name == "fifo") return oracle::make_fifo;
  if (name == "clock") {
    return [] { return std::make_unique<oracle::ClockPolicy>(); };
  }
  if (name == "lfu") return [] { return std::make_unique<oracle::LfuPolicy>(); };
  if (name == "mark") {
    return [] { return std::make_unique<oracle::MarkingPolicy>(false); };
  }
  if (name == "lru-scan") {
    return [] { return std::make_unique<oracle::LruScanPolicy>(); };
  }
  throw InputError("no oracle for policy " + name);
}

/// A batchable strategy: the spec the stamp kernel runs, and factories for
/// the equivalent strategy object over the src/policies objects and over
/// the oracle policies (each rebuilt fresh per run).
struct BatchableCase {
  std::string label;
  BatchStrategySpec spec;
  std::function<std::unique_ptr<CacheStrategy>()> make_scalar;
  std::function<std::unique_ptr<CacheStrategy>()> make_oracle;
};

/// S_A for policy `name`.
BatchableCase shared_case(const std::string& name) {
  return {"S_" + name, BatchStrategySpec::shared(batch_policy(name)),
          [name] {
            return std::make_unique<SharedStrategy>(make_policy_factory(name));
          },
          [name] { return std::make_unique<SharedStrategy>(oracle_factory(name)); }};
}

/// sP^B_A for partition B (labelled `tag`) and policy `name`.
BatchableCase static_case(const std::string& tag, const Partition& partition,
                          const std::string& name) {
  return {"sP_" + tag + "_" + name,
          BatchStrategySpec::static_partition(partition, batch_policy(name)),
          [partition, name] {
            return std::make_unique<StaticPartitionStrategy>(
                partition, make_policy_factory(name));
          },
          [partition, name] {
            return std::make_unique<StaticPartitionStrategy>(
                partition, oracle_factory(name));
          }};
}

/// A skewed partition: core 0 takes all but one cell per other core.
Partition skew_partition(std::size_t K, std::size_t p) {
  Partition skew(p, 1);
  skew[0] = K - (p - 1);
  return skew;
}

std::vector<BatchableCase> batchable_grid(std::size_t p, std::size_t K) {
  const Partition even = even_partition(K, p);
  return {shared_case("lru"), shared_case("fifo"),
          static_case("even", even, "lru"), static_case("even", even, "fifo"),
          static_case("skew", skew_partition(K, p), "lru")};
}

/// The policies the kernels run besides LRU and FIFO.
const std::vector<std::string> kKernelPolicies = {"clock", "lfu", "mark",
                                                  "lru-scan"};

/// Shared, even and skewed static partitions under each of kKernelPolicies
/// (shared only when K < p leaves no partition).
std::vector<BatchableCase> kernel_policy_grid(std::size_t p, std::size_t K) {
  std::vector<BatchableCase> grid;
  for (const std::string& name : kKernelPolicies) {
    grid.push_back(shared_case(name));
    if (K < p) continue;
    grid.push_back(static_case("even", even_partition(K, p), name));
    grid.push_back(static_case("skew", skew_partition(K, p), name));
  }
  return grid;
}

struct WorkloadCase {
  std::string label;
  RequestSet requests;
  bool disjoint = true;
};

std::vector<WorkloadCase> workload_grid(std::size_t p) {
  std::vector<WorkloadCase> grid;
  {
    Rng rng(20260807);
    grid.push_back(
        {"disjoint_uniform", random_disjoint_workload(rng, p, 7, 160), true});
  }
  {
    Rng rng(4242);
    grid.push_back(
        {"shared_uniform", random_shared_workload(rng, p, 12, 160), false});
  }
  {
    CoreWorkload core;
    core.pattern = AccessPattern::kZipf;
    core.num_pages = 24;
    core.length = 200;
    grid.push_back(
        {"disjoint_zipf", make_workload(homogeneous_spec(p, core)), true});
  }
  {
    // Ragged per-core lengths, including an empty sequence: cores of the
    // same job finish at different times.
    Rng rng(99);
    RequestSet rs;
    rs.add_sequence({});
    RequestSequence mid;
    for (std::size_t i = 0; i < 45; ++i) {
      mid.push_back(100 + static_cast<PageId>(rng.below(5)));
    }
    rs.add_sequence(std::move(mid));
    RequestSequence lng;
    for (std::size_t i = 0; i < 160; ++i) {
      lng.push_back(200 + static_cast<PageId>(rng.below(9)));
    }
    rs.add_sequence(std::move(lng));
    grid.push_back({"ragged_lengths", std::move(rs), true});
  }
  {
    // Sparse page ids stress the page->slot index sizing.
    RequestSet rs;
    rs.add_sequence({5000, 7, 5000, 4321, 7, 5000});
    rs.add_sequence({9, 4999, 9, 4999, 9});
    rs.add_sequence({1234});
    grid.push_back({"sparse_ids", std::move(rs), true});
  }
  return grid;
}

/// The oracle: the reference step loop with the case's strategy over the
/// oracle policies.
RunStats oracle_run(const SimConfig& config, const RequestSet& requests,
                    const BatchableCase& sc) {
  const std::unique_ptr<CacheStrategy> oracle = sc.make_oracle();
  return testing::reference_simulate(config, requests, *oracle);
}

/// The hook path: the hook instantiation with the case's strategy object,
/// called directly (simulate() would take the kernel).
RunStats hook_run(const SimConfig& config, const RequestSet& requests,
                  const BatchableCase& sc) {
  const std::unique_ptr<CacheStrategy> scalar = sc.make_scalar();
  return BatchEngine::run_strategy(config, requests, *scalar, {});
}

TEST(BatchDifferential, BitEqualToScalarEngineAcrossGrid) {
  const std::size_t p = 3;
  const std::size_t K = 6;
  const std::vector<WorkloadCase> workloads = workload_grid(p);
  const std::vector<BatchableCase> strategies = batchable_grid(p, K);

  std::vector<SimJob> jobs;
  std::vector<RunStats> expected;
  std::vector<std::string> labels;
  for (const WorkloadCase& wl : workloads) {
    for (const BatchableCase& sc : strategies) {
      for (const Time tau : {Time{0}, Time{3}}) {
        for (const SharedFetchMode mode :
             {SharedFetchMode::kCountsAsFault, SharedFetchMode::kJoinsFetch}) {
          // Shared-fetch mode only matters for non-disjoint inputs; skip
          // the redundant duplicate run on disjoint ones.
          if (wl.disjoint && mode == SharedFetchMode::kJoinsFetch) continue;
          SimConfig config = testing::sim_config(K, tau);
          config.shared_fetch = mode;
          config.record_fault_timeline = true;

          SimJob job;
          job.config = config;
          job.requests = &wl.requests;
          job.strategy = sc.spec;
          jobs.push_back(std::move(job));
          expected.push_back(oracle_run(config, wl.requests, sc));
          labels.push_back(wl.label + "/" + sc.label +
                           "/tau=" + std::to_string(tau) +
                           (mode == SharedFetchMode::kJoinsFetch ? "/join"
                                                                 : "/fault"));
        }
      }
    }
  }
  // A couple of off-grid shapes with other K and tau.
  for (const Time tau : {Time{1}, Time{5}}) {
    SimConfig config = testing::sim_config(3, tau);
    SimJob job;
    job.config = config;
    job.requests = &workloads[0].requests;
    job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
    jobs.push_back(std::move(job));
    SharedStrategy scalar(make_policy_factory("lru"));
    expected.push_back(
        testing::reference_simulate(config, workloads[0].requests, scalar));
    labels.push_back("off_grid/K=3/tau=" + std::to_string(tau));
  }
  ASSERT_GT(jobs.size(), 60u);

  SweepRunner sweep;
  const std::vector<RunStats> got = sweep.run_jobs(jobs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_stats(got[i], expected[i], labels[i]);
  }
}

TEST(BatchDifferential, StrategyObjectsBitEqualToStampKernels) {
  // The hook instantiation driving LRU/FIFO SharedStrategy and
  // StaticPartitionStrategy objects against the stamp kernel running the
  // equivalent SimJob: two instantiations of one step loop, equal in every
  // RunStats field.
  const std::size_t p = 3;
  const std::size_t K = 6;
  std::size_t cells = 0;
  for (const WorkloadCase& wl : workload_grid(p)) {
    for (const BatchableCase& sc : batchable_grid(p, K)) {
      for (const Time tau : {Time{0}, Time{3}}) {
        for (const SharedFetchMode mode :
             {SharedFetchMode::kCountsAsFault, SharedFetchMode::kJoinsFetch}) {
          if (wl.disjoint && mode == SharedFetchMode::kJoinsFetch) continue;
          SimConfig config = testing::sim_config(K, tau);
          config.shared_fetch = mode;
          config.record_fault_timeline = true;
          const SimJob job{config, &wl.requests, sc.spec};
          expect_same_stats(BatchEngine::run(job),
                            hook_run(config, wl.requests, sc),
                            wl.label + "/" + sc.label + "/tau=" +
                                std::to_string(tau) +
                                (mode == SharedFetchMode::kJoinsFetch
                                     ? "/join"
                                     : "/fault"));
          ++cells;
        }
      }
    }
  }
  // 5 workloads x 5 strategies x 2 taus, plus kJoinsFetch on the shared one.
  EXPECT_EQ(cells, 60u);
}

TEST(BatchDifferential, PhasedSteppingWithValidationMatchesOneShot) {
  // mcpd's common shape: the whole trace arrives before the close, so the
  // kernel first runs until some core drains its buffer and parks there,
  // and only the close lets it finish.  Validate the state invariants at
  // both stops (in any build type, not just MCP_CHECKED).
  const std::size_t p = 3;
  const std::size_t K = 6;
  Rng rng(777);
  const RequestSet disjoint = random_disjoint_workload(rng, p, 6, 120);
  const RequestSet shared = random_shared_workload(rng, p, 10, 80);

  for (const RequestSet* rs : {&disjoint, &shared}) {
    for (const Time tau : {Time{0}, Time{2}}) {
      for (const BatchStrategySpec& spec :
           {BatchStrategySpec::shared(BatchPolicy::kLru),
            BatchStrategySpec::static_partition(even_partition(K, p),
                                                BatchPolicy::kFifo)}) {
        SimJob job;
        job.config = testing::sim_config(K, tau);
        job.requests = rs;
        job.strategy = spec;
        const RunStats direct = BatchEngine::run(job);

        BatchEngine phased(job.config, p, spec);
        phased.validate();
        phased.feed(*rs, rs->page_bound(), /*closed=*/false);
        EXPECT_FALSE(phased.advance());
        phased.validate();
        EXPECT_FALSE(phased.ended());
        EXPECT_THROW((void)phased.take_stats(), ModelError);
        phased.feed(*rs, rs->page_bound(), /*closed=*/true);
        EXPECT_TRUE(phased.advance());
        phased.validate();
        EXPECT_EQ(phased.steps(), direct.sim_steps);
        expect_same_stats(phased.take_stats(), direct,
                          "phased tau=" + std::to_string(tau));
      }
    }
  }
}

TEST(BatchDifferential, AllReservedCacheThrowsLikeScalar) {
  // K=1, two cores faulting different pages in the same step: the second
  // needs a cell while the only slot is reserved by an in-flight fetch.
  RequestSet rs;
  rs.add_sequence({1});
  rs.add_sequence({2});
  const SimConfig config = testing::sim_config(1, 2);

  SharedStrategy scalar(make_policy_factory("lru"));
  EXPECT_THROW((void)testing::reference_simulate(config, rs, scalar),
               ModelError);
  SharedStrategy hooked(make_policy_factory("lru"));
  Simulator sim(config);
  EXPECT_THROW((void)sim.run(rs, hooked), ModelError);

  SimJob job;
  job.config = config;
  job.requests = &rs;
  job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
  EXPECT_THROW((void)BatchEngine::run(job), ModelError);

  // Error parity across the workload grid at K < p: wherever the oracle
  // aborts the kernel aborts too, and elsewhere they agree.
  const std::size_t p = 3;
  for (const WorkloadCase& wl : workload_grid(p)) {
    for (const BatchableCase& sc : batchable_grid(p, p)) {
      if (sc.spec.kind != BatchStrategySpec::Kind::kShared) continue;
      for (const Time tau : {Time{0}, Time{3}}) {
        const SimConfig narrow = testing::sim_config(2, tau);
        const std::string label =
            wl.label + "/" + sc.label + "/K=2/tau=" + std::to_string(tau);
        SimJob narrow_job;
        narrow_job.config = narrow;
        narrow_job.requests = &wl.requests;
        narrow_job.strategy = sc.spec;
        bool scalar_threw = false;
        RunStats want;
        try {
          want = oracle_run(narrow, wl.requests, sc);
        } catch (const ModelError&) {
          scalar_threw = true;
        }
        if (scalar_threw) {
          EXPECT_THROW((void)BatchEngine::run(narrow_job), ModelError) << label;
        } else {
          expect_same_stats(BatchEngine::run(narrow_job), want, label);
        }
      }
    }
  }
}

TEST(BatchDifferential, MaxStepsAbortMatchesScalar) {
  Rng rng(5);
  const RequestSet rs = random_disjoint_workload(rng, 2, 8, 200);
  SimConfig config = testing::sim_config(4, 3);
  config.max_steps = 10;

  SharedStrategy scalar(make_policy_factory("lru"));
  EXPECT_THROW((void)testing::reference_simulate(config, rs, scalar),
               ModelError);
  SharedStrategy hooked(make_policy_factory("lru"));
  Simulator sim(config);
  EXPECT_THROW((void)sim.run(rs, hooked), ModelError);

  SimJob job;
  job.config = config;
  job.requests = &rs;
  job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
  EXPECT_THROW((void)BatchEngine::run(job), ModelError);
}

// --- Static partitions composed from per-core runs (run_jobs) ---------------
//
// On a disjoint trace whose static-partition jobs share per-core runs,
// run_jobs simulates each distinct (core, k_j, policy, tau) run once and
// composes every job's RunStats from its cores' runs, sim_steps included.
// The composed jobs must still equal the oracle field for field, and fail
// exactly where a whole-job kernel fails.

/// A disjoint trace: core j issues lengths[j] requests drawn from its own
/// block of `pages` page ids.
RequestSet disjoint_trace(Rng& rng, const std::vector<std::size_t>& lengths,
                          std::size_t pages) {
  RequestSet rs;
  for (std::size_t j = 0; j < lengths.size(); ++j) {
    RequestSequence seq;
    for (std::size_t i = 0; i < lengths[j]; ++i) {
      seq.push_back(static_cast<PageId>(j * pages + rng.below(pages)));
    }
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

/// The oracle for a static-partition job: the reference step loop driving
/// StaticPartitionStrategy with the job's oracle policy.
RunStats static_oracle(const SimConfig& config, const RequestSet& requests,
                       const Partition& partition, const std::string& policy) {
  StaticPartitionStrategy strategy(partition, oracle_factory(policy));
  return testing::reference_simulate(config, requests, strategy);
}

/// The ModelError message `fn` throws, or "" if it returns.
template <typename Fn>
std::string model_error(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(BatchDifferential, ComposedStaticPartitionsMatchOracle) {
  Rng rng(0xC0305E);
  // Traces first (the jobs borrow them): per p, a ragged disjoint trace, one
  // with an empty core and one with a one-request core.
  std::vector<std::pair<std::string, RequestSet>> traces;
  for (std::size_t p = 1; p <= 4; ++p) {
    std::vector<std::size_t> ragged;
    for (std::size_t j = 0; j < p; ++j) ragged.push_back(40 + 9 * j);
    std::vector<std::size_t> empty = ragged;
    empty[p / 2] = 0;
    std::vector<std::size_t> single = ragged;
    single[0] = 1;
    const std::string tag = "p=" + std::to_string(p);
    traces.emplace_back(tag + "/ragged", disjoint_trace(rng, ragged, 6));
    traces.emplace_back(tag + "/empty_core", disjoint_trace(rng, empty, 5));
    traces.emplace_back(tag + "/one_request_core",
                        disjoint_trace(rng, single, 7));
  }
  const RequestSet shared_pages = random_shared_workload(rng, 3, 8, 40);
  const RequestSet lone = disjoint_trace(rng, {30, 50, 20, 45}, 6);

  std::vector<SimJob> jobs;
  std::vector<RunStats> expected;
  std::vector<std::string> labels;
  const auto add_static = [&](const std::string& label, const RequestSet& rs,
                              const Partition& partition,
                              const std::string& policy, Time tau,
                              bool timeline) {
    SimConfig config = testing::sim_config(
        std::accumulate(partition.begin(), partition.end(), std::size_t{0}),
        tau);
    config.record_fault_timeline = timeline;
    jobs.push_back({config, &rs,
                    BatchStrategySpec::static_partition(partition,
                                                        batch_policy(policy))});
    expected.push_back(static_oracle(config, rs, partition, policy));
    labels.push_back(label + "/" + partition_to_string(partition) + "/" +
                     policy + "/tau=" + std::to_string(tau) +
                     (timeline ? "/timeline" : ""));
  };
  const auto add_shared = [&](const std::string& label, const RequestSet& rs,
                              std::size_t K, const std::string& policy,
                              Time tau) {
    const SimConfig config = testing::sim_config(K, tau);
    jobs.push_back(
        {config, &rs, BatchStrategySpec::shared(batch_policy(policy))});
    SharedStrategy strategy(oracle_factory(policy));
    expected.push_back(testing::reference_simulate(config, rs, strategy));
    labels.push_back(label + "/S_" + policy + "/tau=" + std::to_string(tau));
  };

  for (const auto& [label, rs] : traces) {
    const std::size_t p = rs.num_cores();
    const std::size_t K = p + 3;
    for (const std::string policy : {"lru", "fifo"}) {
      add_shared(label, rs, K, policy, 2);
      for (const Time tau : {Time{0}, Time{1}, Time{3}, Time{17}}) {
        for (const Partition& partition : enumerate_partitions(K, p)) {
          for (const bool timeline : {true, false}) {
            add_static(label, rs, partition, policy, tau, timeline);
          }
        }
      }
    }
  }
  // Static jobs on a non-disjoint trace share runs but stay whole kernels:
  // cores hit each other's pages.
  for (const std::string policy : {"lru", "fifo"}) {
    for (const Time tau : {Time{0}, Time{3}}) {
      for (const Partition& partition : enumerate_partitions(6, 3)) {
        add_static("non_disjoint", shared_pages, partition, policy, tau, true);
      }
    }
  }
  // Past tau = 63 a disjoint trace's shared runs stay whole kernels too.
  for (const Partition& partition : enumerate_partitions(6, 3)) {
    add_static("long_fetch", traces[6].second, partition, "fifo", 64, true);
  }
  // A trace with one static job shares no run: it stays a whole kernel.
  add_static("lone", lone, even_partition(8, 4), "lru", 2, true);
  ASSERT_GT(jobs.size(), 1700u);

  // Shuffle, so one trace's jobs are scattered across the call.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<SimJob> shuffled;
  for (const std::size_t i : order) shuffled.push_back(jobs[i]);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
    SweepRunner sweep(SweepOptions{1, workers});
    const std::vector<RunStats> got = sweep.run_jobs(shuffled);
    ASSERT_EQ(got.size(), shuffled.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      expect_same_stats(got[k], expected[order[k]],
                        labels[order[k]] +
                            "/workers=" + std::to_string(workers));
    }
  }
}

TEST(BatchDifferential, ComposedRunsKeyOnTauAndPolicy) {
  // One call over one disjoint trace: every partition under both policies
  // at two fault penalties, so each (core, cells, policy) run appears under
  // both taus and each (core, cells, tau) under both policies, and one job
  // records its fault timeline.  A planner that merged runs across tau or
  // policy would hand a job another run's trajectory.
  Rng rng(0x7A0);
  const RequestSet rs = disjoint_trace(rng, {70, 55, 90}, 6);
  const std::size_t K = 7;
  std::vector<SimJob> jobs;
  std::vector<RunStats> expected;
  std::vector<std::string> labels;
  for (const Time tau : {Time{1}, Time{6}}) {
    for (const std::string policy : {"lru", "fifo"}) {
      for (const Partition& partition : enumerate_partitions(K, 3)) {
        SimConfig config = testing::sim_config(K, tau);
        config.record_fault_timeline = jobs.empty();
        jobs.push_back({config, &rs,
                        BatchStrategySpec::static_partition(
                            partition, batch_policy(policy))});
        expected.push_back(static_oracle(config, rs, partition, policy));
        labels.push_back(partition_to_string(partition) + "/" + policy +
                         "/tau=" + std::to_string(tau));
      }
    }
  }
  ASSERT_FALSE(expected.front().core(0).fault_times.empty());
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    SweepRunner sweep(SweepOptions{1, workers});
    const std::vector<RunStats> got = sweep.run_jobs(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      expect_same_stats(got[k], expected[k],
                        labels[k] + "/workers=" + std::to_string(workers));
    }
  }
}

TEST(BatchDifferential, ComposedStaticPartitionsFailLikeTheKernel) {
  Rng rng(0xFA11);
  const RequestSet rs = disjoint_trace(rng, {35, 60, 1, 48}, 6);
  const std::size_t K = 9;
  std::vector<SimJob> grid;
  for (const Partition& partition : enumerate_partitions(K, 4)) {
    for (const BatchPolicy policy : {BatchPolicy::kLru, BatchPolicy::kFifo}) {
      grid.push_back({testing::sim_config(K, 3), &rs,
                      BatchStrategySpec::static_partition(partition, policy)});
    }
  }
  SweepRunner sweep;

  // max_steps: one step short throws the kernel's message, exactly enough
  // passes, for the longest and the shortest composed job alike.
  const std::vector<RunStats> free_run = sweep.run_jobs(grid);
  std::size_t longest = 0;
  std::size_t shortest = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (free_run[i].sim_steps > free_run[longest].sim_steps) longest = i;
    if (free_run[i].sim_steps < free_run[shortest].sim_steps) shortest = i;
  }
  ASSERT_LT(free_run[shortest].sim_steps, free_run[longest].sim_steps);
  for (const std::size_t i : {longest, shortest}) {
    const std::string label = "job " + std::to_string(i);
    std::vector<SimJob> jobs = grid;
    jobs[i].config.max_steps = free_run[i].sim_steps - 1;
    const std::string want =
        model_error([&] { (void)BatchEngine::run(jobs[i]); });
    EXPECT_NE(want.find("SimConfig.max_steps"), std::string::npos) << label;
    EXPECT_EQ(model_error([&] { (void)sweep.run_jobs(jobs); }), want)
        << label;

    jobs[i].config.max_steps = free_run[i].sim_steps;
    const std::vector<RunStats> capped = sweep.run_jobs(jobs);
    expect_same_stats(capped[i], BatchEngine::run(jobs[i]), label);
  }

  // Malformed jobs next to a decomposable grid fail with the kernel's
  // message.
  SimJob zero_part = grid.front();
  zero_part.strategy.partition = {0, 3, 3, 3};
  SimJob wrong_count = grid.front();
  wrong_count.strategy.partition = {3, 3, 3};
  SimJob wrong_sum = grid.front();
  wrong_sum.strategy.partition = {2, 2, 2, 2};
  SimJob no_requests = grid.front();
  no_requests.requests = nullptr;
  for (const SimJob& bad : {zero_part, wrong_count, wrong_sum, no_requests}) {
    const std::string want = model_error([&] { (void)BatchEngine::run(bad); });
    ASSERT_FALSE(want.empty());
    std::vector<SimJob> jobs = grid;
    jobs.insert(jobs.begin() + 3, bad);
    EXPECT_EQ(model_error([&] { (void)sweep.run_jobs(jobs); }), want);
  }
}

// --- Chunked feeds (mcpd sessions) ------------------------------------------

/// Which cores a chunked run grants more requests to after each advance().
enum class Grant {
  kEveryCore,   ///< `chunk` more to every core, as a client streaming all.
  kRoundRobin,  ///< `chunk` more to one core, cycling through the cores.
  kRandom,      ///< `chunk` more to one core picked at random.
};

/// Runs `job` on one kernel whose feed reveals the trace in grants, the
/// way mcpd's shard appends ingress frames to a session's buffer; the feed
/// closes once the whole trace is revealed.  Validates the kernel state
/// after every advance().
RunStats run_chunked(const SimJob& job, std::size_t chunk, Grant grant,
                     Rng* rng = nullptr) {
  const RequestSet& full = *job.requests;
  const std::size_t p = full.num_cores();
  BatchEngine engine(job.config, p, job.strategy);
  RequestSet revealed(p);
  PageId bound = 0;
  std::size_t sent = 0;
  const auto reveal = [&](CoreId core) {
    const RequestSequence& seq = full.sequence(core);
    RequestSequence& out = revealed.sequence(core);
    const std::size_t n = std::min(chunk, seq.size() - out.size());
    for (std::size_t i = 0; i < n; ++i) {
      const PageId page = seq[out.size()];
      bound = std::max(bound, page + 1);
      out.push_back(page);
    }
    sent += n;
  };
  CoreId next = 0;
  const std::size_t round_limit = 16 * (full.total_requests() + 16);
  for (std::size_t round = 0;; ++round) {
    if (round > round_limit) {
      throw ModelError("chunked run failed to make progress");
    }
    switch (grant) {
      case Grant::kEveryCore:
        for (CoreId core = 0; core < p; ++core) reveal(core);
        break;
      case Grant::kRoundRobin:
        reveal(next);
        next = static_cast<CoreId>((next + 1) % p);
        break;
      case Grant::kRandom:
        reveal(static_cast<CoreId>(rng->below(p)));
        break;
    }
    engine.feed(revealed, bound, sent == full.total_requests());
    const bool ended = engine.advance();
    engine.validate();
    if (ended) break;
  }
  return engine.take_stats();
}

TEST(BatchDifferential, CohortChunkedFeedsBitEqualToScalar) {
  // Every strategy x workload x tau cell, streamed to every core at once in
  // chunks of {1, 7, 1000} requests.
  const std::size_t p = 3;
  const std::size_t K = 6;
  const std::vector<WorkloadCase> workloads = workload_grid(p);
  for (const BatchableCase& sc : batchable_grid(p, K)) {
    for (const Time tau : {Time{0}, Time{3}}) {
      SimConfig config = testing::sim_config(K, tau);
      config.record_fault_timeline = true;
      for (const WorkloadCase& wl : workloads) {
        const RunStats want = oracle_run(config, wl.requests, sc);
        const SimJob job{config, &wl.requests, sc.spec};
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
          expect_same_stats(run_chunked(job, chunk, Grant::kEveryCore), want,
                            wl.label + "/" + sc.label +
                                "/tau=" + std::to_string(tau) +
                                "/chunk=" + std::to_string(chunk));
        }
      }
    }
  }
}

TEST(BatchDifferential, OneCoreGrantsBitEqualToScalar) {
  // Grants to one core at a time, so the kernel parks mid-step on a core
  // whose buffer is empty while later cores of that step have requests
  // waiting: grant sizes {1, 3, 7, 64} in core order, then 6 random orders.
  Rng rng(0xA5A5);
  const std::size_t p = 3;
  const std::size_t K = 12;
  const std::vector<BatchableCase> strategies = batchable_grid(p, K);
  for (int trial = 0; trial < 4; ++trial) {
    const RequestSet requests = random_disjoint_workload(rng, p, 16, 120);
    for (const BatchableCase& sc : strategies) {
      const SimConfig config = testing::sim_config(K, 3);
      const RunStats want = oracle_run(config, requests, sc);
      const SimJob job{config, &requests, sc.spec};
      for (const std::size_t grant : {1u, 3u, 7u, 64u}) {
        expect_same_stats(run_chunked(job, grant, Grant::kRoundRobin), want,
                          sc.label + "/trial=" + std::to_string(trial) +
                              "/grant=" + std::to_string(grant));
      }
    }
  }

  const RequestSet shared = random_shared_workload(rng, p, 24, 150);
  const SimConfig config = testing::sim_config(K, 2);
  for (const BatchableCase& sc : strategies) {
    const RunStats want = oracle_run(config, shared, sc);
    const SimJob job{config, &shared, sc.spec};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng order(seed);
      expect_same_stats(run_chunked(job, 5, Grant::kRandom, &order), want,
                        sc.label + "/random order seed=" +
                            std::to_string(seed));
    }
  }
}

/// RunStats of `job` run three ways — the reference oracle, the hook
/// instantiation and the stamp kernel (whole, or fed in `chunk`-request
/// grants to every core when `chunk` > 0) — checked equal, with a
/// ModelError from the oracle required of the other two.  Returns whether
/// the oracle completed.
bool expect_three_way(const SimJob& job, const BatchableCase& sc,
                      std::size_t chunk, const std::string& label) {
  const auto kernel_run = [&] {
    return chunk == 0 ? BatchEngine::run(job)
                      : run_chunked(job, chunk, Grant::kEveryCore);
  };
  RunStats want;
  try {
    want = oracle_run(job.config, *job.requests, sc);
  } catch (const ModelError&) {
    EXPECT_THROW((void)hook_run(job.config, *job.requests, sc), ModelError)
        << label;
    EXPECT_THROW((void)kernel_run(), ModelError) << label;
    return false;
  }
  expect_same_stats(hook_run(job.config, *job.requests, sc), want,
                    label + "/hook");
  expect_same_stats(kernel_run(), want, label + "/kernel");
  return true;
}

TEST(BatchDifferential, VictimWalkSkipsReservedOldestSlots) {
  // The victim is the oldest present slot on the region's recency list,
  // and slots still fetching can sit at its oldest end: under LRU, every
  // slot touched while a long fetch is in flight moves past it.  By hand,
  // shared LRU, K = 3, tau = 8: pages 1 and 10 land at t = 9, when core 0
  // faults on page 2 (in flight until t = 18) and core 1 hits 10; at
  // t = 10 core 1 hits page 1, so the list reads 2 (fetching), 10, 1, and
  // core 1's fault on 11 at t = 11 must pass over page 2 and evict 10.
  RequestSet by_hand;
  by_hand.add_sequence({1, 2, 10});
  by_hand.add_sequence({10, 10, 1, 11, 10, 2});
  const std::vector<BatchableCase> shared_cases = batchable_grid(2, 2);
  for (const BatchableCase& sc : {shared_cases[0], shared_cases[1]}) {
    const SimJob job{testing::sim_config(3, 8), &by_hand, sc.spec};
    EXPECT_TRUE(expect_three_way(job, sc, 0, "by_hand/" + sc.label));
  }

  // Shared caches at K = p .. p + 2 under long fetches, where faults often
  // find the oldest slots reserved (or every slot, which must abort like
  // the oracle), on disjoint and shared pages, whole and chunked.
  const std::size_t p = 4;
  Rng rng(0x0DD5);
  const RequestSet disjoint = random_disjoint_workload(rng, p, 3, 90);
  const RequestSet shared = random_shared_workload(rng, p, 7, 90);
  std::size_t completed = 0;
  for (const RequestSet* rs : {&disjoint, &shared}) {
    for (const std::size_t K : {p, p + 1, p + 2}) {
      for (const BatchableCase& sc : batchable_grid(p, K)) {
        if (sc.spec.kind != BatchStrategySpec::Kind::kShared) continue;
        for (const Time tau : {Time{8}, Time{13}}) {
          const SimJob job{testing::sim_config(K, tau), rs, sc.spec};
          const std::string label =
              std::string(rs == &disjoint ? "disjoint" : "shared") + "/" +
              sc.label + "/K=" + std::to_string(K) +
              "/tau=" + std::to_string(tau);
          for (const std::size_t chunk : {std::size_t{0}, std::size_t{5}}) {
            if (expect_three_way(job, sc, chunk,
                                 label + "/chunk=" + std::to_string(chunk))) {
              ++completed;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(completed, 0u);
}

TEST(BatchDifferential, WideCachesOnChunkedFeedsBitEqualToScalar) {
  // K = 512: shared and static regions far wider than the reserved slots,
  // filled and then evicting, streamed in chunks.  Disjoint Zipf over 300
  // pages per core, and pages shared between cores (cross-region hits on
  // the static partitions).
  const std::size_t p = 4;
  const std::size_t K = 512;
  CoreWorkload core;
  core.pattern = AccessPattern::kZipf;
  core.num_pages = 300;
  core.length = 1500;
  const RequestSet disjoint =
      make_workload(homogeneous_spec(p, core, true, 0x512));
  Rng rng(0x5120);
  const RequestSet shared = random_shared_workload(rng, p, 700, 1500);
  for (const RequestSet* rs : {&disjoint, &shared}) {
    for (const BatchableCase& sc : batchable_grid(p, K)) {
      SimConfig config = testing::sim_config(K, 3);
      config.record_fault_timeline = true;
      const SimJob job{config, rs, sc.spec};
      for (const std::size_t chunk : {std::size_t{64}, std::size_t{1000}}) {
        EXPECT_TRUE(expect_three_way(
            job, sc, chunk,
            std::string(rs == &disjoint ? "disjoint" : "shared") + "/" +
                sc.label + "/chunk=" + std::to_string(chunk)));
      }
    }
  }
}

TEST(BatchDifferential, CheckedCoreLengthStopsAtTheCursorWidth) {
  // Cursors are 32 bits: a core of 2^32 - 1 requests fits and one more
  // throws, for a fed job as for the hook instantiation (a real core that
  // long would take 16 GiB, so the helper is checked directly).
  const std::size_t widest = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(checked_core_len(widest), widest);
  EXPECT_EQ(checked_core_len(0), 0u);
  EXPECT_THROW((void)checked_core_len(widest + 1), ModelError);
}

TEST(BatchDifferential, CohortRefreshContract) {
  const SimConfig config = testing::sim_config(4, 0);
  const BatchStrategySpec lru = BatchStrategySpec::shared(BatchPolicy::kLru);
  BatchEngine engine(config, 2, lru);

  // Core-count mismatch.
  RequestSet wrong(std::size_t{3});
  EXPECT_THROW(engine.feed(wrong, 0, false), ModelError);

  // A feed may only grow, and a closed feed cannot reopen.
  RequestSet trace(std::size_t{2});
  trace.sequence(0).push_back(1);
  trace.sequence(0).push_back(2);
  engine.feed(trace, 3, false);
  RequestSet shrunk(std::size_t{2});
  shrunk.sequence(0).push_back(1);
  EXPECT_THROW(engine.feed(shrunk, 3, false), ModelError);
  engine.feed(trace, 3, true);
  EXPECT_THROW(engine.feed(trace, 3, false), ModelError);
  EXPECT_TRUE(engine.advance());
  // An ended kernel's advance() is idempotent.
  EXPECT_TRUE(engine.advance());
  EXPECT_EQ(engine.take_stats().core(0).requests, 2u);

  // Empty sequences on a closed feed end in the first step.
  BatchEngine empty(config, 3, lru);
  empty.feed(RequestSet(std::size_t{3}), 0, true);
  EXPECT_TRUE(empty.advance());
  const RunStats stats = empty.take_stats();
  EXPECT_EQ(stats.total_requests(), 0u);
  EXPECT_EQ(stats.end_time, 0u);

  // A shared cache smaller than the core count is a valid shape: only a
  // step that finds every cell reserved aborts (see
  // AllReservedCacheThrowsLikeScalar).
  EXPECT_NO_THROW(BatchEngine(testing::sim_config(1, 0), 2, lru));
}

TEST(BatchDifferential, RejectsMalformedJobs) {
  RequestSet rs;
  rs.add_sequence({1, 2, 3});
  rs.add_sequence({4, 5});

  SimJob no_requests;
  no_requests.config = testing::sim_config(2, 0);
  EXPECT_THROW((void)BatchEngine::run(no_requests), ModelError);

  SimJob bad_partition;
  bad_partition.config = testing::sim_config(4, 0);
  bad_partition.requests = &rs;
  bad_partition.strategy =
      BatchStrategySpec::static_partition({3, 2}, BatchPolicy::kLru);
  EXPECT_THROW((void)BatchEngine::run(bad_partition), ModelError);

  SimJob starved;
  starved.config = testing::sim_config(4, 0);
  starved.requests = &rs;
  starved.strategy =
      BatchStrategySpec::static_partition({4, 0}, BatchPolicy::kLru);
  EXPECT_THROW((void)BatchEngine::run(starved), ModelError);

  // Slot and sentinel ids are 32 bits: K + regions must stay below
  // kNoBatchSlot (rejected before any array is sized).
  EXPECT_THROW(BatchEngine(testing::sim_config(kNoBatchSlot, 0), 1,
                           BatchStrategySpec::shared(BatchPolicy::kLru)),
               ModelError);
}

// --- CLOCK, LFU, MARK and LRU-SCAN kernels ----------------------------------
//
// Each kernel policy runs on flat per-slot state and must equal both its
// src/policies object on the hook instantiation and the oracle policy on
// the reference step loop, field for field and abort for abort.

/// The workloads of workload_grid plus a one-core trace, for K = 1.
std::vector<WorkloadCase> kernel_workloads(std::size_t p) {
  std::vector<WorkloadCase> grid = workload_grid(p);
  Rng rng(0x1C0E);
  grid.push_back({"one_core", random_disjoint_workload(rng, 1, 5, 120), true});
  return grid;
}

TEST(BatchDifferential, KernelPoliciesThreeWayAcrossGrid) {
  // Shared, even and skewed static partitions under each policy, at
  // tau in {0, 1, 3} and both shared-fetch modes, over disjoint,
  // non-disjoint, ragged, sparse-id and one-core workloads, with the cache
  // at K = 6 (whole and fed in chunks of 7), K = 2 < p (every cell often
  // reserved: aborts must match) and K = 1.
  const std::size_t p = 3;
  std::size_t completed = 0;
  std::size_t aborted = 0;
  for (const WorkloadCase& wl : kernel_workloads(p)) {
    const std::size_t cores = wl.requests.num_cores();
    for (const std::size_t K : {std::size_t{6}, std::size_t{2}, std::size_t{1}}) {
      for (const BatchableCase& sc : kernel_policy_grid(cores, K)) {
        for (const Time tau : {Time{0}, Time{1}, Time{3}}) {
          for (const SharedFetchMode mode : {SharedFetchMode::kCountsAsFault,
                                             SharedFetchMode::kJoinsFetch}) {
            if (wl.disjoint && mode == SharedFetchMode::kJoinsFetch) continue;
            SimConfig config = testing::sim_config(K, tau);
            config.shared_fetch = mode;
            config.record_fault_timeline = true;
            const SimJob job{config, &wl.requests, sc.spec};
            const std::string label =
                wl.label + "/" + sc.label + "/K=" + std::to_string(K) +
                "/tau=" + std::to_string(tau) +
                (mode == SharedFetchMode::kJoinsFetch ? "/join" : "/fault");
            for (const std::size_t chunk : {std::size_t{0}, std::size_t{7}}) {
              if (chunk != 0 && K != 6) continue;
              const bool done = expect_three_way(
                  job, sc, chunk, label + "/chunk=" + std::to_string(chunk));
              ++(done ? completed : aborted);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(completed, 300u);
  EXPECT_GT(aborted, 20u);
}

TEST(BatchDifferential, KernelPoliciesMatchTheirObjectsOnHandBuiltCorners) {
  // Same-step ties, K = 2, tau = 0: both cores fault at t = 0, and core 0's
  // fault at t = 1 must pick the lower page id among the two pages last
  // used at t = 0 under LFU, MARK (after resetting both marks) and
  // LRU-SCAN.  Core 1 then asks at t = 1 for the page that tie-break
  // evicts (case A: page 3, which sits in the higher slot) or keeps (case
  // B: page 5, which core 0 touched first).  A tie broken by slot misses
  // case A, one broken by touch order case B.
  struct TieCase {
    std::string label;
    RequestSequence core0;
    RequestSequence core1;
    Count core1_faults;
  };
  const std::vector<TieCase> ties = {{"A", {3, 9}, {5, 3}, 2},
                                     {"B", {5, 9}, {3, 5}, 1}};
  for (const TieCase& tie : ties) {
    RequestSet rs;
    rs.add_sequence(tie.core0);
    rs.add_sequence(tie.core1);
    for (const std::string name : {"lfu", "mark", "lru-scan"}) {
      const BatchableCase sc = shared_case(name);
      const SimJob job{testing::sim_config(2, 0), &rs, sc.spec};
      const std::string label = "tie " + tie.label + "/" + sc.label;
      EXPECT_TRUE(expect_three_way(job, sc, 0, label));
      EXPECT_EQ(BatchEngine::run(job).core(1).faults, tie.core1_faults)
          << label;
    }
  }

  // CLOCK removing the ring's back page, K = 3, one core: the first sweep
  // clears every bit and evicts page 1 at the back, and the hand steps back
  // to page 3 (not round to the front, page 2), so page 3 is the next
  // victim and page 2 still hits at the end: 5 faults, not 6.
  {
    RequestSet rs;
    rs.add_sequence({1, 2, 3, 4, 5, 2});
    const BatchableCase sc = shared_case("clock");
    const SimJob job{testing::sim_config(3, 0), &rs, sc.spec};
    EXPECT_TRUE(expect_three_way(job, sc, 0, "clock back"));
    EXPECT_EQ(BatchEngine::run(job).total_faults(), 5u);
  }

  // A MARK phase reset in mid-step, K = 2: at t = 1 (tau = 0) core 0's
  // fault finds both pages marked, resets and evicts page 1, and core 1's
  // hit on page 4 later in that step marks page 4 again, so the reset at
  // t = 2 finds pages 2 and 4 both last used at t = 1 and evicts page 2.
  {
    RequestSet rs;
    rs.add_sequence({1, 2, 3, 4});
    rs.add_sequence({4, 4, 4, 2, 4});
    for (const Time tau : {Time{0}, Time{2}}) {
      const BatchableCase sc = shared_case("mark");
      const SimJob job{testing::sim_config(2, tau), &rs, sc.spec};
      EXPECT_TRUE(
          expect_three_way(job, sc, 0, "mark reset tau=" + std::to_string(tau)));
    }
  }

  // MARK's reset counts every tracked page, fetching ones too: here a
  // reset unmarks a page still in flight, and a later fault finds every
  // present page marked but that one not, so no phase ends (12 faults;
  // ending one there, as a count of present pages alone would, gives 11).
  {
    RequestSet rs;
    rs.add_sequence({2, 4, 3, 1, 1, 0, 1});
    rs.add_sequence({3, 1, 1, 1, 2, 3});
    rs.add_sequence({2, 2, 0});
    const BatchableCase sc = shared_case("mark");
    const SimJob job{testing::sim_config(3, 2), &rs, sc.spec};
    EXPECT_TRUE(expect_three_way(job, sc, 0, "mark reset in flight"));
    EXPECT_EQ(BatchEngine::run(job).total_faults(), 12u);
  }
}

TEST(BatchDifferential, SimulateRunsKernelFormsBitEqualToObjects) {
  // simulate() takes the kernel for every kernel policy, shared and
  // static, and leaves the strategy object as a hook run's attach()
  // leaves it; an object over an oracle policy (no kernel form) and
  // randomized marking stay objects.
  const std::size_t p = 3;
  const std::size_t K = 6;
  Rng rng(0x51A);
  const RequestSet rs = random_shared_workload(rng, p, 12, 150);
  const SimConfig config = testing::sim_config(K, 2);
  std::vector<BatchableCase> cases = batchable_grid(p, K);
  for (BatchableCase& sc : kernel_policy_grid(p, K)) cases.push_back(sc);
  for (const BatchableCase& sc : cases) {
    const std::unique_ptr<CacheStrategy> routed = sc.make_scalar();
    const std::unique_ptr<CacheStrategy> hooked = sc.make_scalar();
    // The kernel form is the attached object's: none before attach().
    EXPECT_FALSE(routed->batch_spec().has_value()) << sc.label;
    EXPECT_EQ(routed->name(), hooked->name()) << sc.label;
    const RunStats kernel = simulate(config, rs, *routed);
    const std::optional<BatchStrategySpec> spec = routed->batch_spec();
    ASSERT_TRUE(spec.has_value()) << sc.label;
    EXPECT_EQ(spec->kind, sc.spec.kind) << sc.label;
    EXPECT_EQ(spec->policy, sc.spec.policy) << sc.label;
    EXPECT_EQ(spec->partition, sc.spec.partition) << sc.label;
    const RunStats hook = BatchEngine::run_strategy(config, rs, *hooked, {});
    expect_same_stats(kernel, hook, sc.label + "/simulate");
    expect_same_stats(kernel, oracle_run(config, rs, sc), sc.label + "/oracle");
    EXPECT_EQ(routed->name(), hooked->name()) << sc.label;
    const std::unique_ptr<CacheStrategy> oracle = sc.make_oracle();
    (void)simulate(config, rs, *oracle);
    EXPECT_FALSE(oracle->batch_spec().has_value()) << sc.label;
  }
  SharedStrategy mark_random(make_policy_factory("mark-random"));
  (void)simulate(config, rs, mark_random);
  EXPECT_FALSE(mark_random.batch_spec().has_value());
  // A partition the object rejects fails in attach(), with the object's
  // error, before the kernel form is asked for.
  StaticPartitionStrategy short_sum({2, 2, 1}, make_policy_factory("clock"));
  StaticPartitionStrategy short_hooked({2, 2, 1}, make_policy_factory("clock"));
  const std::string rejected = model_error(
      [&] { (void)BatchEngine::run_strategy(config, rs, short_hooked, {}); });
  EXPECT_FALSE(rejected.empty());
  EXPECT_EQ(model_error([&] { (void)simulate(config, rs, short_sum); }),
            rejected);

  // The all-reserved abort says "no evictable page (all reserved)" on both
  // paths, behind the name of what found it: the strategy object on the
  // hook path, the engine on the kernel, which has no object to name.
  RequestSet two;
  two.add_sequence({1});
  two.add_sequence({2});
  const SimConfig narrow = testing::sim_config(1, 2);
  for (const std::string& name : kKernelPolicies) {
    SharedStrategy routed(make_policy_factory(name));
    SharedStrategy hooked(make_policy_factory(name));
    const std::string hook = model_error(
        [&] { (void)BatchEngine::run_strategy(narrow, two, hooked, {}); });
    EXPECT_NE(hook.find(hooked.name() + ": no evictable page (all reserved)"),
              std::string::npos)
        << hook;
    const std::string kernel =
        model_error([&] { (void)simulate(narrow, two, routed); });
    EXPECT_NE(kernel.find("batch engine: no evictable page (all reserved)"),
              std::string::npos)
        << kernel;
  }
}

TEST(BatchDifferential, PartitionSearchOnKernelPoliciesMatchesObjects) {
  // policy_fault_curves and optimal_partition_by_simulation run the kernel
  // policies on the kernels; over the oracle policies they run per-cell
  // objects.  Same curves, same best partition and faults, on a disjoint
  // and a non-disjoint trace.
  const std::size_t p = 3;
  const std::size_t K = 7;
  Rng rng(0x9A27);
  const RequestSet disjoint = random_disjoint_workload(rng, p, 6, 90);
  const RequestSet shared = random_shared_workload(rng, p, 10, 90);
  for (const std::string& name : kKernelPolicies) {
    EXPECT_EQ(policy_fault_curves(disjoint, K, make_policy_factory(name)),
              policy_fault_curves(disjoint, K, oracle_factory(name)))
        << name;
    for (const RequestSet* rs : {&disjoint, &shared}) {
      for (const Time tau : {Time{0}, Time{3}}) {
        const SimConfig config = testing::sim_config(K, tau);
        const PartitionSearchResult kernel = optimal_partition_by_simulation(
            config, *rs, make_policy_factory(name));
        const PartitionSearchResult objects = optimal_partition_by_simulation(
            config, *rs, oracle_factory(name));
        EXPECT_EQ(kernel.partition, objects.partition) << name;
        EXPECT_EQ(kernel.faults, objects.faults) << name;
      }
    }
  }
}

}  // namespace
}  // namespace mcp
