// Differential test battery for the batch kernel (core/batch_engine.hpp):
// for every batchable strategy x workload x tau x shared-fetch cell, the
// kernel must produce RunStats bit-equal to the retained scalar Simulator
// driving the real strategy objects — hits, faults, fault timelines,
// completion times, end time and step count — whether it simulates a whole
// job at once or is fed the trace in chunks and parks mid-step wherever the
// buffered requests run out.  Error behaviour (reserved-full cache,
// max_steps abort) must match too.
#include "core/batch_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/partition.hpp"
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

/// A batchable strategy: the spec the batch kernel runs and the factory for
/// the equivalent scalar strategy object (rebuilt fresh per run).
struct BatchableCase {
  std::string label;
  BatchStrategySpec spec;
  std::function<std::unique_ptr<CacheStrategy>()> make_scalar;
};

std::vector<BatchableCase> batchable_grid(std::size_t p, std::size_t K) {
  std::vector<BatchableCase> grid;
  grid.push_back({"S_lru", BatchStrategySpec::shared(BatchPolicy::kLru), [] {
                    return std::make_unique<SharedStrategy>(
                        make_policy_factory("lru"));
                  }});
  grid.push_back({"S_fifo", BatchStrategySpec::shared(BatchPolicy::kFifo), [] {
                    return std::make_unique<SharedStrategy>(
                        make_policy_factory("fifo"));
                  }});
  const Partition even = even_partition(K, p);
  grid.push_back(
      {"sP_even_lru", BatchStrategySpec::static_partition(even, BatchPolicy::kLru),
       [even] {
         return std::make_unique<StaticPartitionStrategy>(
             even, make_policy_factory("lru"));
       }});
  grid.push_back(
      {"sP_even_fifo",
       BatchStrategySpec::static_partition(even, BatchPolicy::kFifo), [even] {
         return std::make_unique<StaticPartitionStrategy>(
             even, make_policy_factory("fifo"));
       }});
  Partition skew(p, 1);
  skew[0] = K - (p - 1);
  grid.push_back(
      {"sP_skew_lru", BatchStrategySpec::static_partition(skew, BatchPolicy::kLru),
       [skew] {
         return std::make_unique<StaticPartitionStrategy>(
             skew, make_policy_factory("lru"));
       }});
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

/// The scalar oracle: Simulator::run with the case's strategy object.
RunStats oracle_run(const SimConfig& config, const RequestSet& requests,
                    const BatchableCase& sc) {
  const std::unique_ptr<CacheStrategy> scalar = sc.make_scalar();
  Simulator sim(config);
  return sim.run(requests, *scalar);
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
    Simulator sim(config);
    expected.push_back(sim.run(workloads[0].requests, scalar));
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
  Simulator sim(config);
  EXPECT_THROW((void)sim.run(rs, scalar), ModelError);

  SimJob job;
  job.config = config;
  job.requests = &rs;
  job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
  EXPECT_THROW((void)BatchEngine::run(job), ModelError);

  // Error parity across the workload grid at K < p: wherever the scalar
  // engine aborts the kernel aborts too, and elsewhere they agree.
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
  Simulator sim(config);
  EXPECT_THROW((void)sim.run(rs, scalar), ModelError);

  SimJob job;
  job.config = config;
  job.requests = &rs;
  job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
  EXPECT_THROW((void)BatchEngine::run(job), ModelError);
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
}

}  // namespace
}  // namespace mcp
