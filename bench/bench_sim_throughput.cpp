// Experiment E13 — engine microbenchmarks (google-benchmark): simulator
// request throughput across core counts, cache sizes, eviction policies and
// strategy families, plus the victim-selection ablation (list-backed LRU vs
// scan-based LFU), the offline solvers' cost per state and independent
// FTF solves across sweep runners, and the parallel sweep engine's
// cells/sec across worker counts (the repo's perf baseline;
// pass --benchmark_format=json to capture the counters machine-readably).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/batch_engine.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/pif_solver.hpp"
#include "policies/policy_registry.hpp"
#include "service/mcpd.hpp"
#include "service/wire_format.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/partition.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "workload/workload.hpp"

namespace {

using namespace mcp;

RequestSet zipf_workload(std::size_t p, std::size_t pages, std::size_t length,
                         std::uint64_t seed) {
  CoreWorkload core;
  core.pattern = AccessPattern::kZipf;
  core.num_pages = pages;
  core.length = length;
  return make_workload(homogeneous_spec(p, core, true, seed));
}

/// S_A on a zipf trace through simulate() (`hook` false), which runs the
/// policies a stamp kernel implements on that kernel, or through the hook
/// instantiation with the strategy object (`hook` true).
void shared_policy(benchmark::State& state, const char* policy, bool hook) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const RequestSet rs = zipf_workload(p, 64, 4000, 5);
  SimConfig cfg;
  cfg.cache_size = 16 * p;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  Count steps = 0;
  Count faults = 0;
  for (auto _ : state) {
    SharedStrategy strategy(make_policy_factory(policy, 7));
    const RunStats stats =
        hook ? BatchEngine::run_strategy(cfg, rs, strategy, {})
             : simulate(cfg, rs, strategy);
    benchmark::DoNotOptimize(stats.total_faults());
    steps += stats.sim_steps;
    faults += stats.total_faults();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rs.total_requests()));
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["faults_per_sec"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kIsRate);
}

void BM_SharedPolicy(benchmark::State& state, const char* policy) {
  shared_policy(state, policy, /*hook=*/false);
}

/// BM_SharedPolicy's twin on the hook instantiation: the within-run
/// kernel-over-hook speedup the perf-smoke job gates.
void BM_SharedPolicyHook(benchmark::State& state, const char* policy) {
  shared_policy(state, policy, /*hook=*/true);
}

void BM_StaticPartition(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const RequestSet rs = zipf_workload(p, 64, 4000, 6);
  SimConfig cfg;
  cfg.cache_size = 16 * p;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  for (auto _ : state) {
    StaticPartitionStrategy strategy(even_partition(cfg.cache_size, p),
                                     make_policy_factory("lru"));
    const RunStats stats = simulate(cfg, rs, strategy);
    benchmark::DoNotOptimize(stats.total_faults());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rs.total_requests()));
}

void BM_Lemma3Dynamic(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const RequestSet rs = zipf_workload(p, 64, 4000, 7);
  SimConfig cfg;
  cfg.cache_size = 16 * p;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  for (auto _ : state) {
    Lemma3DynamicPartition strategy;
    const RunStats stats = simulate(cfg, rs, strategy);
    benchmark::DoNotOptimize(stats.total_faults());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rs.total_requests()));
}

void BM_SharedFitf(benchmark::State& state) {
  const RequestSet rs = zipf_workload(4, 64, 4000, 8);
  SimConfig cfg;
  cfg.cache_size = 64;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  for (auto _ : state) {
    auto strategy = SharedStrategy::fitf();
    const RunStats stats = simulate(cfg, rs, *strategy);
    benchmark::DoNotOptimize(stats.total_faults());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rs.total_requests()));
}

/// Uniform FTF instance over 5 pages per core with tau = 2 (E8's
/// bytes_per_state family, and offline_exact's FTF shape at p = 3).
OfflineInstance uniform_ftf_instance(std::size_t p, std::size_t per_core,
                                     std::size_t k, std::uint64_t seed) {
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = 5;
  core.length = per_core;
  OfflineInstance inst;
  inst.requests = make_workload(homogeneous_spec(p, core, true, seed));
  inst.cache_size = k;
  inst.tau = 2;
  return inst;
}

/// Solves every instance once per iteration.  states_per_sec counts stored
/// states; it is the offline perf-smoke gate (BENCH_OFFLINE.json).
void time_ftf_solves(benchmark::State& state,
                     const std::vector<OfflineInstance>& instances) {
  std::size_t states = 0;
  for (auto _ : state) {
    std::size_t pass_states = 0;
    std::size_t pass_bytes = 0;
    for (const OfflineInstance& inst : instances) {
      const FtfResult result = solve_ftf(inst);
      benchmark::DoNotOptimize(result.min_faults);
      pass_states += result.states_stored;
      pass_bytes += result.peak_bytes_in_ram;
    }
    states += pass_states;
    state.counters["states"] = static_cast<double>(pass_states);
    state.counters["bytes_per_state"] =
        static_cast<double>(pass_bytes) / static_cast<double>(pass_states);
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}

void BM_FtfSolver(benchmark::State& state) {
  time_ftf_solves(state, {uniform_ftf_instance(
                             2, static_cast<std::size_t>(state.range(0)), 4,
                             78)});
}

void BM_FtfSolverThreeCores(benchmark::State& state) {
  // offline_exact's FTF instances (p = 3, K = 5, 18 requests per core), six
  // per iteration as in one round of that workload.  Up to three cores evict
  // in one step here; at p = 2 at most two do.
  std::vector<OfflineInstance> instances;
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    instances.push_back(uniform_ftf_instance(3, 18, 5, seed));
  }
  time_ftf_solves(state, instances);
}

void BM_FtfSolverSweep(benchmark::State& state) {
  // Offline parallelism runs across independent solves: sixteen serial FTF
  // solves of BM_FtfSolver's instance family (40 requests/core, seeds
  // 100..115) as SweepRunner cells.  Arg = runner cap (1 = serial, 0 = all
  // hardware workers).  Registered with UseRealTime, so solves_per_sec is a
  // wall-clock rate; the perf-smoke --speedup gate compares /0 against /1
  // within one run.
  constexpr std::size_t kSolves = 16;
  const std::size_t max_threads = static_cast<std::size_t>(state.range(0));
  std::vector<OfflineInstance> instances;
  for (std::size_t i = 0; i < kSolves; ++i) {
    instances.push_back(uniform_ftf_instance(2, 40, 4, 100 + i));
  }
  std::size_t solves = 0;
  for (auto _ : state) {
    SweepRunner sweep(SweepOptions{/*master_seed=*/13, max_threads});
    const std::vector<Count> faults =
        sweep.run(kSolves, [&](std::size_t i, Rng& /*rng*/) {
          return solve_ftf(instances[i]).min_faults;
        });
    benchmark::DoNotOptimize(faults.data());
    solves += kSolves;
  }
  state.counters["solves_per_sec"] = benchmark::Counter(
      static_cast<double>(solves), benchmark::Counter::kIsRate);
}

void BM_PifSolver(benchmark::State& state) {
  const Time deadline = static_cast<Time>(state.range(0));
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = 3;
  core.length = static_cast<std::size_t>(deadline);
  PifInstance inst;
  inst.base.requests = make_workload(homogeneous_spec(2, core, true, 31));
  inst.base.cache_size = 2;
  inst.base.tau = 1;
  inst.deadline = deadline;
  inst.bounds = {deadline, deadline};
  PifOptions options;
  std::size_t states = 0;
  for (auto _ : state) {
    const PifResult result = solve_pif(inst, options);
    benchmark::DoNotOptimize(result.feasible);
    states += result.states_expanded;
    state.counters["peak_width"] =
        static_cast<double>(result.peak_layer_width);
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}

void BM_BigFleetThroughput(benchmark::State& state) {
  // Wide configuration: 16 cores, large shared cache, timeline recording on
  // (the full-featured path a user measures).
  const RequestSet rs = zipf_workload(16, 128, 2000, 10);
  SimConfig cfg;
  cfg.cache_size = 256;  // K = p^2
  cfg.fault_penalty = 8;
  for (auto _ : state) {
    SharedStrategy strategy(make_policy_factory("lru"));
    const RunStats stats = simulate(cfg, rs, strategy);
    benchmark::DoNotOptimize(stats.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rs.total_requests()));
}

void BM_LruFaultCurve(benchmark::State& state) {
  // Per-core LRU fault-curve construction, the kernel behind partition
  // search (sP^OPT_LRU): p full curves f_j(k) for k = 0..K.  cells/sec is
  // the perf-smoke gate for the fault-curve path.
  const std::size_t K = static_cast<std::size_t>(state.range(0));
  const RequestSet rs = zipf_workload(4, 96, 20000, 12);
  const PolicyFactory lru = make_policy_factory("lru");
  std::size_t cells = 0;
  for (auto _ : state) {
    const FaultCurves curves = policy_fault_curves(rs, K, lru);
    benchmark::DoNotOptimize(curves.data());
    cells += curves.size() * (K + 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["curve_cells_per_sec"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}

void BM_PartitionSweep(benchmark::State& state) {
  // The sweep engine's perf baseline: simulate every static partition of
  // K=16 over p=3 cores (105 cells) on the pool as strategy objects on the
  // hook instantiation, at the worker cap given by the benchmark argument
  // (0 = all hardware workers).  The cells/sec and
  // wall-clock counters come straight from the SweepRunner timing that the
  // table benches also emit, so the JSON output doubles as the baseline.
  const std::size_t max_threads = static_cast<std::size_t>(state.range(0));
  const RequestSet rs = zipf_workload(3, 48, 1500, 11);
  SimConfig cfg;
  cfg.cache_size = 16;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  const PolicyFactory lru = make_policy_factory("lru");
  const std::vector<Partition> grid = enumerate_partitions(16, 3, 1);
  std::size_t cells = 0;
  double wall = 0.0;
  for (auto _ : state) {
    SweepRunner sweep(SweepOptions{/*master_seed=*/13, max_threads});
    const std::vector<Count> faults =
        sweep.run(grid.size(), [&](std::size_t i, Rng& /*rng*/) {
          // The hook instantiation, as BM_BatchSweep's speedup gate means
          // it: simulate() would run this strategy on a stamp kernel.
          StaticPartitionStrategy strategy(grid[i], lru);
          return BatchEngine::run_strategy(cfg, rs, strategy, {})
              .total_faults();
        });
    benchmark::DoNotOptimize(faults.data());
    cells += sweep.last_timing().cells;
    wall += sweep.last_timing().wall_seconds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["cells_per_sec"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
  state.counters["sweep_wall_s"] = wall;
}

void BM_BatchSweep(benchmark::State& state) {
  // The same 105-cell partition grid as BM_PartitionSweep, but run through
  // SweepRunner::run_jobs instead of per-cell strategy objects, at the same
  // worker cap as BM_PartitionSweep/0.  The zipf trace is disjoint, so
  // run_jobs composes the 105 jobs from their 42 distinct per-core runs
  // (3 cores x 14 part sizes, each a one-region paging pass over the
  // core's sequence) instead of simulating 315 core-runs.  cells_per_sec
  // here against BM_PartitionSweep/0's counter is the speedup of that
  // composed sweep over strategy objects simulating every job whole; the
  // perf-smoke job gates both this counter and the ratio.
  // lane_steps_per_sec counts the jobs' summed sim_steps, which
  // composition reproduces exactly.
  const RequestSet rs = zipf_workload(3, 48, 1500, 11);
  SimConfig cfg;
  cfg.cache_size = 16;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  const std::vector<Partition> grid = enumerate_partitions(16, 3, 1);
  std::vector<SimJob> jobs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    jobs[i].config = cfg;
    jobs[i].requests = &rs;
    jobs[i].strategy =
        BatchStrategySpec::static_partition(grid[i], BatchPolicy::kLru);
  }
  std::size_t cells = 0;
  Count lane_steps = 0;
  double wall = 0.0;
  for (auto _ : state) {
    SweepRunner sweep(SweepOptions{/*master_seed=*/13, /*max_threads=*/0});
    const std::vector<RunStats> stats = sweep.run_jobs(jobs);
    benchmark::DoNotOptimize(stats.data());
    cells += sweep.last_timing().cells;
    wall += sweep.last_timing().wall_seconds;
    for (const RunStats& s : stats) lane_steps += s.sim_steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["cells_per_sec"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
  state.counters["lane_steps_per_sec"] = benchmark::Counter(
      static_cast<double>(lane_steps), benchmark::Counter::kIsRate);
  state.counters["sweep_wall_s"] = wall;
}

void BM_SweepGridJobs(benchmark::State& state) {
  // One sweep_grid-shaped grid through SweepRunner::run_jobs: Zipf and
  // working-set traces at p = 3 and 4 (32 pages and 192 requests per core,
  // K = 10, tau = 4), every static partition of K under LRU and FIFO plus
  // shared LRU per trace — 484 jobs of a few microseconds each, 480 of
  // them composed from 208 per-core runs.  At this grain the per-call
  // costs (planning, pool dispatch, composition) rather than paging set
  // the speed.  Arg = worker cap (1 = one runner, 0 = all runners); the
  // perf-smoke job gates the /0 over /1 ratio of cells_per_sec, which a
  // per-cell lock or a serial planner pulls towards 1.
  const std::size_t max_threads = static_cast<std::size_t>(state.range(0));
  std::vector<RequestSet> traces;
  std::uint64_t seed = 7;
  for (const AccessPattern pattern :
       {AccessPattern::kZipf, AccessPattern::kWorkingSet}) {
    for (const std::size_t p : {std::size_t{3}, std::size_t{4}}) {
      CoreWorkload core;
      core.pattern = pattern;
      core.num_pages = 32;
      core.length = 192;
      core.working_set = 4;
      traces.push_back(make_workload(homogeneous_spec(p, core, true, ++seed)));
    }
  }
  SimConfig cfg;
  cfg.cache_size = 10;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  std::vector<SimJob> jobs;
  for (const RequestSet& rs : traces) {
    for (const Partition& partition :
         enumerate_partitions(cfg.cache_size, rs.num_cores())) {
      for (const BatchPolicy policy : {BatchPolicy::kLru, BatchPolicy::kFifo}) {
        jobs.push_back(
            {cfg, &rs, BatchStrategySpec::static_partition(partition, policy)});
      }
    }
    jobs.push_back({cfg, &rs, BatchStrategySpec::shared(BatchPolicy::kLru)});
  }
  std::size_t cells = 0;
  double wall = 0.0;
  for (auto _ : state) {
    SweepRunner sweep(SweepOptions{/*master_seed=*/13, max_threads});
    const std::vector<RunStats> stats = sweep.run_jobs(jobs);
    benchmark::DoNotOptimize(stats.data());
    cells += sweep.last_timing().cells;
    wall += sweep.last_timing().wall_seconds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["cells_per_sec"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
  state.counters["sweep_wall_s"] = wall;
}

void BM_StampKernel(benchmark::State& state, bool hit_loop) {
  // One whole job per iteration on the shared-LRU stamp kernel
  // (BatchEngine::run): p = 4, tau = 4, 4096 requests per core.  Arg = K.
  // The Zipf trace draws from 4096 pages per core, so most requests fault
  // and each fault in the full cache picks a victim; in the hit loop each
  // core cycles over 4 pages of its own, all resident at K = 16 after 16
  // cold faults, which times the LRU hit path.  The perf-smoke --speedup
  // gate compares requests_per_sec at K = 512 against K = 8: a victim
  // search that grows with K pulls that ratio far below 1.
  constexpr std::size_t kCores = 4;
  constexpr std::size_t kRequests = 4096;
  RequestSet rs;
  if (hit_loop) {
    rs = RequestSet(kCores);
    for (CoreId j = 0; j < kCores; ++j) {
      for (std::size_t i = 0; i < kRequests; ++i) {
        rs.sequence(j).push_back(static_cast<PageId>(4 * j + i % 4));
      }
    }
  } else {
    rs = zipf_workload(kCores, 4096, kRequests, 14);
  }
  SimJob job;
  job.config.cache_size = static_cast<std::size_t>(state.range(0));
  job.config.fault_penalty = 4;
  job.config.record_fault_timeline = false;
  job.requests = &rs;
  job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
  Count faults = 0;
  for (auto _ : state) {
    const RunStats stats = BatchEngine::run(job);
    benchmark::DoNotOptimize(stats.end_time);
    faults += stats.total_faults();
  }
  const double requests = static_cast<double>(state.iterations()) *
                          static_cast<double>(rs.total_requests());
  state.counters["requests_per_sec"] =
      benchmark::Counter(requests, benchmark::Counter::kIsRate);
  state.counters["fault_share"] = static_cast<double>(faults) / requests;
}

void BM_McpdIngest(benchmark::State& state) {
  // End-to-end daemon ingest for one epoch-batched round: submit eight
  // pre-encoded tenant documents (open + chunks + close + fault query) and
  // wait for every reply.  Measures wire decode, shard routing, session
  // stepping and response publication together; encoding is hoisted out of
  // the loop.  Arg = shard count.  pairs_per_sec is context only: the
  // service layer's perf-smoke gate is mcpd-loadgen (BENCH_MCPD.json).
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTenants = 8;
  std::vector<std::shared_ptr<const std::vector<std::byte>>> traces;
  std::vector<std::shared_ptr<const std::vector<std::byte>>> queries;
  std::size_t pairs_per_round = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const RequestSet rs = zipf_workload(4, 64, 500, 20 + t);
    const wire::SessionParams params{4, 16, 4, wire::StrategyKind::kSharedLru};
    traces.push_back(std::make_shared<const std::vector<std::byte>>(
        wire::encode_trace(rs, t + 1, params, 256)));
    wire::WireWriter writer;
    writer.query_faults(t + 1, t + 1);
    queries.push_back(std::make_shared<const std::vector<std::byte>>(
        std::move(writer).take()));
    pairs_per_round += rs.total_requests();
  }
  std::size_t pairs = 0;
  for (auto _ : state) {
    service::Mcpd daemon(service::McpdConfig{shards});
    const auto mailbox = std::make_shared<service::ResponseMailbox>();
    for (std::size_t t = 0; t < kTenants; ++t) {
      daemon.submit_document(traces[t], mailbox);
      daemon.submit_document(queries[t], mailbox);
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      benchmark::DoNotOptimize(mailbox->wait());
    }
    daemon.stop();
    pairs += pairs_per_round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK_CAPTURE(BM_SharedPolicy, lru, "lru")->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_SharedPolicy, lru_scan, "lru-scan")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicy, fifo, "fifo")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicy, clock, "clock")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicy, lfu, "lfu")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicy, mark, "mark")->Arg(4);
// The hook instantiation's absolute floor (check_perf_regression.py's
// default gates): BM_SharedPolicy/lru/4 times the LRU kernel.
BENCHMARK_CAPTURE(BM_SharedPolicyHook, lru, "lru")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicyHook, lru_scan, "lru-scan")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicyHook, clock, "clock")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicyHook, lfu, "lfu")->Arg(4);
BENCHMARK_CAPTURE(BM_SharedPolicyHook, mark, "mark")->Arg(4);
BENCHMARK(BM_StaticPartition)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_Lemma3Dynamic)->Arg(4);
BENCHMARK(BM_SharedFitf);
// Arg = requests per core; the instance family matches E8's bytes_per_state
// series (5 pages/core, K=4, tau=2 — wide victim branching).
BENCHMARK(BM_FtfSolver)->Arg(24)->Arg(40)->Arg(48);
BENCHMARK(BM_FtfSolverThreeCores);
// Arg = SweepRunner cap: the perf-smoke --speedup gate requires /0
// solves_per_sec >= 1.5x /1.
BENCHMARK(BM_FtfSolverSweep)->Arg(1)->Arg(0)->UseRealTime();
// Arg = deadline; matches E9's width_vs_deadline series.
BENCHMARK(BM_PifSolver)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_BigFleetThroughput);
BENCHMARK(BM_LruFaultCurve)->Arg(64);
// Arg = sweep worker cap: serial, two workers, all hardware workers (0).
// Multi-threaded benchmarks run on real time: a kIsRate counter divides by
// the calling thread's CPU time otherwise, which overstates the rate.
BENCHMARK(BM_PartitionSweep)->Arg(1)->Arg(2)->Arg(0)->UseRealTime();
BENCHMARK(BM_BatchSweep)->UseRealTime();
// Arg = SweepRunner cap: the perf-smoke --speedup gate requires /0
// cells_per_sec >= 1.25x /1.
BENCHMARK(BM_SweepGridJobs)->Arg(1)->Arg(0)->UseRealTime();
// Arg = K: the perf-smoke --speedup gate requires /zipf/512 requests_per_sec
// >= 0.35x /zipf/8.
BENCHMARK_CAPTURE(BM_StampKernel, zipf, false)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(BM_StampKernel, hit_loop, true)->Arg(16);
// Arg = shard count: single-shard baseline vs the sharded daemon.
BENCHMARK(BM_McpdIngest)->Arg(1)->Arg(4)->UseRealTime();

BENCHMARK_MAIN();
