// Workload sweep_grid: the research harness over Zipf and working-set
// traces with p = 3 and 4.
//
// One grid pass covers one trace set (Zipf and working-set, each at p = 3
// and p = 4) with three kinds of work: every static partition of K with
// LRU and with FIFO (plus shared LRU) through SweepRunner::run_jobs batch
// lanes; shared-cache strategies with clock, lfu, mark and lru-scan plus
// Lemma3DynamicPartition through SweepRunner::run with strategy objects;
// and policy_fault_curves followed by optimal_partition_from_curves.
// Passes cycle over the trace sets until the run's time is up.  One trace
// set in 16 has 8 times longer traces, so the latency tail is the cost of
// those grids rather than the host's scheduling hiccups on short passes.
// Results are checked after the timed region.
#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "bench.hpp"
#include "core/batch_state.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "core/thread_pool.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/partition.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/shared.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using mcp::Count;
using mcp::RequestSet;

struct Shape {
  std::size_t trace_sets = 64;
  std::size_t length = 192;  ///< Requests per core.
  std::size_t long_every = 16;     ///< Every 16th trace set is long,
  std::size_t long_length = 1536;  ///< with this many requests per core.
  std::size_t pages = 32;    ///< Pages per core.
  std::size_t cache = 10;
  mcp::Time tau = 4;
};

Shape shape_for(const Options& options) {
  Shape shape;
  if (options.size == Size::kTiny) {
    shape.trace_sets = 2;
    shape.length = 64;
    shape.long_every = 2;
    shape.long_length = 128;
    shape.cache = 8;
  }
  return shape;
}

/// Scalar strategy-object cells, in this order per trace.
constexpr const char* kScalarStrategies[] = {"clock", "lfu", "mark", "lru-scan",
                                             "lemma3"};
constexpr std::size_t kScalarPerTrace = std::size(kScalarStrategies);
constexpr std::size_t kLemma3 = 4;  ///< Index of "lemma3" above.

struct Grid {
  std::vector<RequestSet> traces;
  std::vector<mcp::SimJob> jobs;
  std::vector<std::size_t> job_trace;
  std::vector<bool> job_static_lru;
  std::vector<std::size_t> shared_lru_job;  ///< Per trace.
};

Grid make_grid(const Shape& shape, std::size_t length, std::uint64_t seed) {
  Grid grid;
  std::uint64_t state = seed;
  for (const auto pattern :
       {mcp::AccessPattern::kZipf, mcp::AccessPattern::kWorkingSet}) {
    for (const std::size_t p : {3, 4}) {
      mcp::CoreWorkload core;
      core.pattern = pattern;
      core.num_pages = shape.pages;
      core.length = length;
      core.working_set = 4;
      grid.traces.push_back(mcp::make_workload(
          mcp::homogeneous_spec(p, core, true, mcp::splitmix64(state))));
    }
  }
  mcp::SimConfig config;
  config.cache_size = shape.cache;
  config.fault_penalty = shape.tau;
  config.record_fault_timeline = false;
  for (std::size_t t = 0; t < grid.traces.size(); ++t) {
    const std::size_t p = grid.traces[t].num_cores();
    for (const mcp::Partition& partition :
         mcp::enumerate_partitions(shape.cache, p)) {
      for (const auto policy : {mcp::BatchPolicy::kLru, mcp::BatchPolicy::kFifo}) {
        grid.jobs.push_back(mcp::SimJob{
            config, &grid.traces[t],
            mcp::BatchStrategySpec::static_partition(partition, policy)});
        grid.job_trace.push_back(t);
        grid.job_static_lru.push_back(policy == mcp::BatchPolicy::kLru);
      }
    }
    grid.shared_lru_job.push_back(grid.jobs.size());
    grid.jobs.push_back(mcp::SimJob{
        config, &grid.traces[t],
        mcp::BatchStrategySpec::shared(mcp::BatchPolicy::kLru)});
    grid.job_trace.push_back(t);
    grid.job_static_lru.push_back(false);
  }
  return grid;
}

struct Grids {
  std::vector<Grid> sets;
  double generate_s = 0.0;  ///< Wall time make_grids took.
};

Grids make_grids(const Shape& shape, std::uint64_t seed) {
  const std::uint64_t start = now_ns();
  Grids out;
  std::uint64_t state = seed ^ 0x5eedULL;
  for (std::size_t g = 0; g < shape.trace_sets; ++g) {
    const bool long_set = g % shape.long_every == shape.long_every - 1;
    out.sets.push_back(make_grid(
        shape, long_set ? shape.long_length : shape.length,
        mcp::splitmix64(state)));
  }
  out.generate_s = seconds_between(start, now_ns());
  return out;
}

struct CellOut {
  Count faults = 0;
  Count steps = 0;
  std::uint64_t cpu_ns = 0;
};

/// What one pass produced.  Round-0 passes keep every fault count for the
/// oracle checks; later passes of the same grid must match their digest.
struct PassRecord {
  std::size_t grid = 0;
  bool keep = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double wall_s = 0.0;
  double batch_s = 0.0;
  double scalar_s = 0.0;
  double curve_s = 0.0;
  double search_s = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t batch_cells = 0;
  std::uint64_t scalar_cells = 0;
  std::uint64_t lane_steps = 0;
  std::uint64_t scalar_steps = 0;
  std::uint64_t scalar_cpu_ns = 0;
  std::uint64_t digest = 0;
  std::vector<Count> job_faults;
  std::vector<Count> scalar_faults;
  std::vector<Count> curve_faults;  ///< Per trace.
};

struct Pass {
  std::vector<PassRecord> records;
  Tracer tracer;
};

/// Runs grid passes, cycling over the trace sets, until the run's time is
/// up; `between_cycles`, if set, is called before every cycle but the first.
Pass run_pass(const Options& options, const Shape& shape,
              const std::vector<Grid>& grids, bool trace,
              const std::function<void()>& between_cycles) {
  Pass pass;
  pass.tracer = Tracer(trace);
  const std::size_t runners = parallel_runners();
  mcp::SweepOptions sweep_options;
  sweep_options.master_seed = options.seed;
  sweep_options.max_threads = runners;
  mcp::SweepRunner runner(sweep_options);
  const mcp::PolicyFactory lru = mcp::make_policy_factory("lru");
  mcp::SimConfig config;
  config.cache_size = shape.cache;
  config.fault_penalty = shape.tau;
  config.record_fault_timeline = false;

  const std::uint64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::size_t n = 0; n < grids.size() || now_ns() < deadline; ++n) {
    if (n > 0 && n % grids.size() == 0 && between_cycles) between_cycles();
    const Grid& grid = grids[n % grids.size()];
    PassRecord rec;
    rec.grid = n % grids.size();
    rec.keep = n < grids.size();
    const Scope pass_span(pass.tracer, "sweep.pass");
    const std::uint64_t pass_start = now_ns();

    std::vector<mcp::RunStats> batch;
    {
      const Scope span(pass.tracer, "core.sweep.run_jobs");
      batch = runner.run_jobs(grid.jobs);
    }
    rec.batch_s = runner.last_timing().wall_seconds;
    rec.batch_cells = grid.jobs.size();

    const std::size_t scalar_cells = grid.traces.size() * kScalarPerTrace;
    std::vector<CellOut> scalar;
    {
      const Scope span(pass.tracer, "core.sweep.run");
      scalar = runner.run(scalar_cells, [&](std::size_t i, mcp::Rng&) {
        const RequestSet& requests = grid.traces[i / kScalarPerTrace];
        const std::string name = kScalarStrategies[i % kScalarPerTrace];
        std::unique_ptr<mcp::CacheStrategy> strategy;
        if (name == "lemma3") {
          strategy = std::make_unique<mcp::Lemma3DynamicPartition>();
        } else {
          strategy = std::make_unique<mcp::SharedStrategy>(
              mcp::make_policy_factory(name));
        }
        const std::uint64_t cpu = thread_cpu_ns();
        const mcp::RunStats stats = mcp::simulate(config, requests, *strategy);
        return CellOut{stats.total_faults(), stats.sim_steps,
                       thread_cpu_ns() - cpu};
      });
    }
    rec.scalar_s = runner.last_timing().wall_seconds;
    rec.scalar_cells = scalar_cells;

    std::vector<Count> curve_faults;
    for (const RequestSet& requests : grid.traces) {
      std::uint64_t t0 = now_ns();
      mcp::FaultCurves curves;
      {
        const Scope span(pass.tracer, "policies.mattson.curve");
        curves = mcp::policy_fault_curves(requests, shape.cache, lru);
      }
      rec.curve_s += seconds_between(t0, now_ns());
      t0 = now_ns();
      {
        const Scope span(pass.tracer, "strategies.partition.search");
        curve_faults.push_back(
            mcp::optimal_partition_from_curves(curves, shape.cache).faults);
      }
      rec.search_s += seconds_between(t0, now_ns());
    }
    rec.start_ns = pass_start;
    rec.end_ns = now_ns();
    rec.wall_s = seconds_between(pass_start, rec.end_ns);
    rec.cells = rec.batch_cells + rec.scalar_cells + grid.traces.size();

    // Bookkeeping for the checks after the timed region.
    std::uint64_t h = 0;
    for (const mcp::RunStats& stats : batch) {
      h = mix(h, stats.total_faults());
      rec.lane_steps += stats.sim_steps;
    }
    for (const CellOut& cell : scalar) {
      h = mix(h, cell.faults);
      rec.scalar_steps += cell.steps;
      rec.scalar_cpu_ns += cell.cpu_ns;
    }
    for (const Count f : curve_faults) h = mix(h, f);
    rec.digest = h;
    if (rec.keep) {
      for (const mcp::RunStats& stats : batch) {
        rec.job_faults.push_back(stats.total_faults());
      }
      for (const CellOut& cell : scalar) rec.scalar_faults.push_back(cell.faults);
      rec.curve_faults = std::move(curve_faults);
    }
    pass.records.push_back(std::move(rec));
  }
  return pass;
}

/// The first pass of each grid against the oracles: the curve-based LRU
/// partition equals the best simulated static-LRU cell (exact for disjoint
/// inputs), and Lemma 3's dynamic partition faults exactly like shared LRU.
/// Later passes must reproduce the first pass bit for bit.
void check(const Pass& pass, const std::vector<Grid>& grids, bool perturb,
           Result& result) {
  const Count offset = perturb ? 1 : 0;
  std::vector<bool> grid_ok(grids.size(), false);
  std::vector<std::uint64_t> grid_digest(grids.size(), 0);
  for (const PassRecord& rec : pass.records) {
    if (!rec.keep) continue;
    const Grid& grid = grids[rec.grid];
    bool ok = true;
    for (std::size_t t = 0; t < grid.traces.size(); ++t) {
      Count best = ~Count{0};
      for (std::size_t j = 0; j < grid.jobs.size(); ++j) {
        if (grid.job_trace[j] == t && grid.job_static_lru[j]) {
          best = std::min(best, rec.job_faults[j]);
        }
      }
      const Count lemma3 = rec.scalar_faults[t * kScalarPerTrace + kLemma3];
      ok = ok && rec.curve_faults[t] == best + offset &&
           lemma3 == rec.job_faults[grid.shared_lru_job[t]];
    }
    grid_ok[rec.grid] = ok;
    grid_digest[rec.grid] = rec.digest;
  }
  for (const PassRecord& rec : pass.records) {
    result.attempted += rec.cells;
    if (!grid_ok[rec.grid] || rec.digest != grid_digest[rec.grid]) {
      result.failed += rec.cells;
    }
  }
}

/// Throughput is the interquartile mean over full cycles through the trace
/// sets (every cycle does the same work), so a burst of interference from
/// outside the benchmark moves cycles that fall in the dropped quarters.
void end_to_end(const Pass& pass, std::size_t num_grids, Result& result) {
  std::vector<double> latencies;
  std::vector<double> rates;
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < pass.records.size(); ++i) {
    const PassRecord& rec = pass.records[i];
    latencies.push_back(rec.wall_s * 1e3);
    cells += rec.cells;
    if ((i + 1) % num_grids == 0) {
      const PassRecord& first = pass.records[i + 1 - num_grids];
      const double wall = seconds_between(first.start_ns, rec.end_ns);
      if (wall > 0.0) rates.push_back(static_cast<double>(cells) / wall);
      cells = 0;
    }
  }
  result.throughput_per_s = interquartile_mean(rates);
  result.latency_p50_ms = quantile(latencies, 0.5);
  result.latency_p99_ms = quantile(latencies, 0.99);
  result.latency_samples = latencies.size();
}

/// Per-layer metrics per cycle over the trace sets: counts from the first
/// cycle, times as the mean cycle of the whole pass.
void layer_metrics(const Pass& pass, std::size_t num_grids, Result& result) {
  double batch_cells = 0, scalar_cells = 0, lane_steps = 0;
  double batch_s = 0, scalar_s = 0, curve_s = 0, search_s = 0;
  double steps = 0, cpu_s = 0;
  for (const PassRecord& rec : pass.records) {
    if (rec.keep) {
      batch_cells += static_cast<double>(rec.batch_cells);
      scalar_cells += static_cast<double>(rec.scalar_cells);
      lane_steps += static_cast<double>(rec.lane_steps);
    }
    batch_s += rec.batch_s;
    scalar_s += rec.scalar_s;
    curve_s += rec.curve_s;
    search_s += rec.search_s;
    steps += static_cast<double>(rec.scalar_steps);
    cpu_s += static_cast<double>(rec.scalar_cpu_ns) * 1e-9;
  }
  const double cycles = static_cast<double>(pass.records.size()) /
                        static_cast<double>(num_grids);
  auto& l = result.layers;
  l["core.sweep.batch_cells"] = batch_cells;
  l["core.sweep.batch_s"] = batch_s / cycles;
  l["core.batch.lane_steps"] = lane_steps;
  l["core.sweep.scalar_cells"] = scalar_cells;
  l["core.sweep.scalar_s"] = scalar_s / cycles;
  l["core.simulator.steps_per_cpu_s"] = cpu_s > 0.0 ? steps / cpu_s : 0.0;
  l["core.sweep.parallel_efficiency"] =
      scalar_s > 0.0
          ? cpu_s / (static_cast<double>(parallel_runners()) * scalar_s)
          : 0.0;
  l["policies.mattson.curve_s"] = curve_s / cycles;
  l["strategies.partition.search_s"] = search_s / cycles;
}

}  // namespace

Result run_sweep(const Options& options) {
  const Shape shape = shape_for(options);
  Result result;
  // The library's shared pool is process-wide and starts on first use, once
  // per process, so it is started here, before the set-up samples.
  const std::uint64_t pool_start = now_ns();
  mcp::ThreadPool::global().run_indexed(
      parallel_runners(), [](std::size_t) {}, parallel_runners());
  const double pool_s = seconds_between(pool_start, now_ns());
  SetupTimer setup([&] { return make_grids(shape, options.seed); });
  const Grids inputs = setup.first();
  const std::vector<Grid>& grids = inputs.sets;
  std::ostringstream note;
  note << "grid passes over " << shape.trace_sets
       << " trace sets (zipf and working-set, p 3 and 4, " << shape.length
       << " requests, or " << shape.long_length << " in every "
       << shape.long_every << "th set, and " << shape.pages
       << " pages per core, K "
       << shape.cache << ", tau " << shape.tau << "); " << grids[0].jobs.size()
       << " batch cells, " << grids[0].traces.size() * kScalarPerTrace
       << " strategy-object cells and " << grids[0].traces.size()
       << " curve searches per pass; SweepRunner capped at "
       << parallel_runners()
       << " threads; shared pool start (once per process, not in setup_s) "
       << pool_s << " s";
  result.notes.push_back(note.str());

  setup.start_region(options.seconds);
  const Pass pass = run_pass(options, shape, grids, false,
                             [&setup] { setup.between_units(); });
  setup.finish(result);
  end_to_end(pass, grids.size(), result);
  check(pass, grids, options.perturb_oracle, result);
  if (!options.trace) return result;

  const Pass traced =
      run_pass(traced_pass(options), shape, grids, true, nullptr);
  Result traced_e2e;
  end_to_end(traced, grids.size(), traced_e2e);
  layer_metrics(traced, grids.size(), result);
  finish_traced(options, inputs.generate_s, traced_e2e.throughput_per_s,
                "cells/s", {&traced.tracer}, result);
  check(traced, grids, options.perturb_oracle, result);
  return result;
}

}  // namespace perfbench
