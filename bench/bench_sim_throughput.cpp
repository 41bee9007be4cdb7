// Experiment E13 — engine microbenchmarks (google-benchmark): simulator
// request throughput across core counts, cache sizes, eviction policies and
// strategy families, plus the victim-selection ablation (list-backed LRU vs
// scan-based LFU), the offline solver's cost per state, and the parallel
// sweep engine's cells/sec across worker counts (the repo's perf baseline;
// pass --benchmark_format=json to capture the counters machine-readably).
#include <benchmark/benchmark.h>

#include <chrono>

#include "core/batch_state.hpp"
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

void BM_SharedPolicy(benchmark::State& state, const char* policy) {
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
    const RunStats stats = simulate(cfg, rs, strategy);
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

void BM_FtfSolver(benchmark::State& state, OfflineEngine engine) {
  // states_per_sec is the offline perf-smoke gate (BENCH_OFFLINE.json):
  // packed must stay well ahead of the retained reference engine.
  const std::size_t per_core = static_cast<std::size_t>(state.range(0));
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = 5;
  core.length = per_core;
  OfflineInstance inst;
  inst.requests = make_workload(homogeneous_spec(2, core, true, 78));
  inst.cache_size = 4;
  inst.tau = 2;
  FtfOptions options;
  options.engine = engine;
  options.workers = 1;  // serial path: comparable to pre-parallel baselines
  std::size_t states = 0;
  for (auto _ : state) {
    const FtfResult result = solve_ftf(inst, options);
    benchmark::DoNotOptimize(result.min_faults);
    states += result.states_stored;
    state.counters["states"] = static_cast<double>(result.states_stored);
    state.counters["bytes_per_state"] =
        static_cast<double>(result.peak_bytes_in_ram) /
        static_cast<double>(result.states_stored);
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}

void BM_FtfSolverParallel(benchmark::State& state) {
  // Bucket-synchronous parallel FTF expansion, projected at W workers
  // (Arg).  The wall clock cannot show the parallel speedup on an
  // oversubscribed or small machine, so the gated counter is
  // capacity_states_per_sec — the solve rate projected at W dedicated
  // workers, states / (serial_ns + expand_busy_ns / W), the same
  // oversubscription-immune convention as mcpd's capacity_rps.  Every Arg
  // runs the *same* instrumented chunked solve (workers = 8) and projects
  // its measured split at Arg workers: serial_ns is the solve wall minus
  // the parallel expansion/dedup passes, expand_busy_ns sums those passes'
  // thread CPU time (worker-count independent), so Arg(1) is the chunked
  // engine's own single-worker projection — the Amdahl denominator.  The
  // perf-smoke job gates parallel/8 capacity >= 3x parallel/1 within the
  // same run, so the gate is immune to machine-speed drift.  (The serial
  // reference path is benchmarked separately as BM_FtfSolver.)
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = 5;
  core.length = 20;
  OfflineInstance inst;
  inst.requests = make_workload(homogeneous_spec(3, core, true, 78));
  inst.cache_size = 5;
  inst.tau = 2;
  FtfOptions options;
  options.engine = OfflineEngine::kPacked;
  options.workers = 8;
  std::size_t states = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t expand_wall_ns = 0;
  std::uint64_t busy_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const FtfResult result = solve_ftf(inst, options);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result.min_faults);
    states += result.states_stored;
    wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    expand_wall_ns += result.expand_wall_ns;
    busy_ns += result.expand_busy_ns;
  }
  const double serial_ns =
      static_cast<double>(wall_ns) - static_cast<double>(expand_wall_ns);
  const double projected_ns =
      serial_ns + static_cast<double>(busy_ns) / static_cast<double>(workers);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["capacity_states_per_sec"] =
      projected_ns > 0.0 ? static_cast<double>(states) * 1e9 / projected_ns
                         : 0.0;
}

void BM_PifSolver(benchmark::State& state, OfflineEngine engine) {
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
  options.engine = engine;
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
  // K=16 over p=3 cores (105 cells) on the pool, at the worker cap given by
  // the benchmark argument (0 = all hardware workers).  The cells/sec and
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
          StaticPartitionStrategy strategy(grid[i], lru);
          return simulate(cfg, rs, strategy).total_faults();
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
  // The same 105-cell partition grid as BM_PartitionSweep, but run on the
  // batch kernel (SweepRunner::run_jobs) instead of per-cell strategy
  // objects, at the same worker cap as BM_PartitionSweep/0.  cells_per_sec
  // here against BM_PartitionSweep/0's counter is the kernel-vs-strategy-
  // objects speedup; the perf-smoke job gates both this counter and the
  // ratio.
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

void BM_McpdIngest(benchmark::State& state) {
  // End-to-end daemon ingest for one epoch-batched round: submit eight
  // pre-encoded tenant documents (open + chunks + close + fault query) and
  // wait for every reply.  Measures wire decode, shard routing, session
  // stepping and response publication together; encoding is hoisted out of
  // the loop.  Arg = shard count.  pairs_per_sec is the perf-smoke gate for
  // the service layer (BENCH_MCPD.json holds the loadgen-side baseline).
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
BENCHMARK(BM_StaticPartition)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_Lemma3Dynamic)->Arg(4);
BENCHMARK(BM_SharedFitf);
// Arg = requests per core; the instance family matches E8's engine_speedup
// series (5 pages/core, K=4, tau=2 — wide victim branching).
BENCHMARK_CAPTURE(BM_FtfSolver, packed, mcp::OfflineEngine::kPacked)
    ->Arg(24)->Arg(40)->Arg(48);
BENCHMARK_CAPTURE(BM_FtfSolver, reference, mcp::OfflineEngine::kReference)
    ->Arg(24)->Arg(40)->Arg(48);
// Arg = worker count for the projected-capacity pair (48 requests/core
// instance, same family as above): the perf-smoke --speedup gate requires
// parallel/8 capacity_states_per_sec >= 3x parallel/1.
BENCHMARK(BM_FtfSolverParallel)->Arg(1)->Arg(8);
// Arg = deadline; matches E9's engine_speedup series.
BENCHMARK_CAPTURE(BM_PifSolver, packed, mcp::OfflineEngine::kPacked)
    ->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_PifSolver, reference, mcp::OfflineEngine::kReference)
    ->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_BigFleetThroughput);
BENCHMARK(BM_LruFaultCurve)->Arg(64);
// Arg = sweep worker cap: serial, two workers, all hardware workers (0).
BENCHMARK(BM_PartitionSweep)->Arg(1)->Arg(2)->Arg(0);
BENCHMARK(BM_BatchSweep);
// Arg = shard count: single-shard baseline vs the sharded daemon.
BENCHMARK(BM_McpdIngest)->Arg(1)->Arg(4);

BENCHMARK_MAIN();
