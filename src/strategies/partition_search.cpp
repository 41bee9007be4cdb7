#include "strategies/partition_search.hpp"

#include <limits>
#include <optional>

#include "core/batch_state.hpp"
#include "core/error.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "core/thread_pool.hpp"
#include "policies/belady.hpp"
#include "policies/mattson.hpp"
#include "strategies/static_partition.hpp"

namespace mcp {

namespace {

// Fault-curve construction is a (core, k) grid of independent single-core
// runs: flatten it into cells and sweep the cells on the shared pool.  Each
// cell writes only its own curve slot, so the curves are bit-identical for
// any worker count.
FaultCurves fault_curve_sweep(
    const RequestSet& requests, std::size_t cache_size,
    const std::function<Count(const RequestSequence&, std::size_t)>& faults) {
  FaultCurves curves(requests.num_cores());
  const std::size_t width = cache_size + 1;
  for (auto& curve : curves) curve.resize(width);
  ThreadPool::global().run_indexed(
      requests.num_cores() * width, [&](std::size_t cell) {
        const CoreId j = static_cast<CoreId>(cell / width);
        const std::size_t k = cell % width;
        curves[j][k] = faults(requests.sequence(j), k);
      });
  return curves;
}

}  // namespace

FaultCurves belady_fault_curves(const RequestSet& requests,
                                std::size_t cache_size) {
  return fault_curve_sweep(
      requests, cache_size,
      [](const RequestSequence& seq, std::size_t k) {
        return belady_faults(seq, k);
      });
}

FaultCurves policy_fault_curves(const RequestSet& requests,
                                std::size_t cache_size,
                                const PolicyFactory& factory) {
  // LRU has the stack property, so the whole column f_j(0..K) falls out of
  // one Mattson pass per core instead of K + 1 independent runs, with the
  // cores' passes spread over the shared pool.  The name check is
  // deliberately exact: LRU-SCAN and the other variants do not keep the
  // inclusion property.
  const std::string policy_name = factory()->name();
  if (policy_name == "LRU") {
    return lru_fault_curve_batch(requests, cache_size);
  }
  // FIFO has no stack property, but every (j, k) grid cell is a one-core
  // simulation the batch kernel runs natively: materialize the grid as
  // SimJobs and run them on the kernel instead of per-cell policy
  // objects.  The k = 0 column is the no-cache limit (every request
  // faults), same as single_core_policy_faults.
  if (const std::optional<BatchPolicy> batched =
          batch_policy_from_name(policy_name);
      batched.has_value()) {
    const std::size_t p = requests.num_cores();
    std::vector<RequestSet> singles;
    singles.reserve(p);
    for (CoreId j = 0; j < p; ++j) {
      RequestSet single;
      single.add_sequence(requests.sequence(j));
      singles.push_back(std::move(single));
    }
    std::vector<SimJob> jobs;
    jobs.reserve(p * cache_size);
    for (CoreId j = 0; j < p; ++j) {
      for (std::size_t k = 1; k <= cache_size; ++k) {
        SimJob job;
        job.config.cache_size = k;
        job.config.record_fault_timeline = false;
        job.requests = &singles[j];
        job.strategy = BatchStrategySpec::shared(*batched);
        jobs.push_back(std::move(job));
      }
    }
    SweepRunner sweep;
    const std::vector<RunStats> stats = sweep.run_jobs(jobs);
    FaultCurves curves(p);
    for (CoreId j = 0; j < p; ++j) {
      curves[j].resize(cache_size + 1);
      curves[j][0] = requests.sequence(j).size();
      for (std::size_t k = 1; k <= cache_size; ++k) {
        curves[j][k] = stats[j * cache_size + (k - 1)].total_faults();
      }
    }
    return curves;
  }
  return fault_curve_sweep(
      requests, cache_size,
      [&factory](const RequestSequence& seq, std::size_t k) {
        return single_core_policy_faults(seq, k, factory);
      });
}

PartitionSearchResult optimal_partition_from_curves(const FaultCurves& curves,
                                                    std::size_t cache_size,
                                                    std::size_t min_per_core) {
  const std::size_t p = curves.size();
  MCP_REQUIRE(p > 0, "optimal_partition_from_curves: no cores");
  MCP_REQUIRE(cache_size >= p * min_per_core,
              "cache too small for the per-core minimum");
  for (const auto& curve : curves) {
    MCP_REQUIRE(curve.size() == cache_size + 1,
                "fault curve must cover k = 0..K");
  }

  constexpr Count kInf = std::numeric_limits<Count>::max();
  // best[c] = min faults assigning exactly c cells to the cores handled so
  // far; choice[j][c] = k_j realizing it (for reconstruction).
  std::vector<Count> best(cache_size + 1, kInf);
  std::vector<std::vector<std::size_t>> choice(
      p, std::vector<std::size_t>(cache_size + 1, 0));
  best[0] = 0;
  for (std::size_t j = 0; j < p; ++j) {
    std::vector<Count> next(cache_size + 1, kInf);
    for (std::size_t used = 0; used <= cache_size; ++used) {
      if (best[used] == kInf) continue;
      for (std::size_t k = min_per_core; used + k <= cache_size; ++k) {
        const Count total = best[used] + curves[j][k];
        if (total < next[used + k]) {
          next[used + k] = total;
          choice[j][used + k] = k;
        }
      }
    }
    best = std::move(next);
  }
  MCP_REQUIRE(best[cache_size] != kInf, "no feasible partition");

  PartitionSearchResult result;
  result.faults = best[cache_size];
  result.partition.assign(p, 0);
  std::size_t cells = cache_size;
  for (std::size_t j = p; j-- > 0;) {
    result.partition[j] = choice[j][cells];
    cells -= choice[j][cells];
  }
  MCP_ASSERT(cells == 0);
  return result;
}

PartitionSearchResult optimal_partition_opt(const RequestSet& requests,
                                            std::size_t cache_size) {
  MCP_REQUIRE(requests.is_disjoint(),
              "optimal_partition_opt requires a disjoint request set "
              "(use optimal_partition_by_simulation otherwise)");
  return optimal_partition_from_curves(belady_fault_curves(requests, cache_size),
                                       cache_size);
}

PartitionSearchResult optimal_partition_for_policy(const RequestSet& requests,
                                                   std::size_t cache_size,
                                                   const PolicyFactory& factory) {
  MCP_REQUIRE(requests.is_disjoint(),
              "optimal_partition_for_policy requires a disjoint request set "
              "(use optimal_partition_by_simulation otherwise)");
  return optimal_partition_from_curves(
      policy_fault_curves(requests, cache_size, factory), cache_size);
}

PartitionSearchResult optimal_partition_by_simulation(
    const SimConfig& config, const RequestSet& requests,
    const PolicyFactory& factory, std::size_t min_per_core) {
  const std::vector<Partition> candidates = enumerate_partitions(
      config.cache_size, requests.num_cores(), min_per_core);
  MCP_REQUIRE(!candidates.empty(), "no feasible partition");

  // The candidate runs are independent: sweep them on the shared pool.  The
  // cells are seed-free (the simulation is deterministic), so the sweep is
  // reproducible for any worker count by construction.  LRU and FIFO
  // partitions are batchable: one SimJob per candidate, run on the batch
  // kernel (bit-equal to the per-cell Simulator runs — the differential
  // battery holds the kernel to that).
  SweepRunner sweep;
  std::vector<Count> faults;
  if (const std::optional<BatchPolicy> batched =
          batch_policy_from_name(factory()->name());
      batched.has_value()) {
    std::vector<SimJob> jobs(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      jobs[i].config = config;
      jobs[i].config.record_fault_timeline = false;  // totals only
      jobs[i].requests = &requests;
      jobs[i].strategy =
          BatchStrategySpec::static_partition(candidates[i], *batched);
    }
    const std::vector<RunStats> stats = sweep.run_jobs(jobs);
    faults.resize(stats.size());
    for (std::size_t i = 0; i < stats.size(); ++i) {
      faults[i] = stats[i].total_faults();
    }
  } else {
    faults = sweep.run(candidates.size(), [&](std::size_t i, Rng& /*rng*/) {
      StaticPartitionStrategy strategy(candidates[i], factory);
      return simulate(config, requests, strategy).total_faults();
    });
  }

  PartitionSearchResult result;
  result.faults = std::numeric_limits<Count>::max();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (faults[i] < result.faults) {
      result.faults = faults[i];
      result.partition = candidates[i];
    }
  }
  return result;
}

}  // namespace mcp
