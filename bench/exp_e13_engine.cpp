// Experiment E13 — engine throughput, lab edition.  The full
// google-benchmark microbenchmark suite lives in bench_sim_throughput
// (run it directly; pass --benchmark_format=json for machine-readable
// counters).  This registration measures a compact single-pass version of
// the same quantities so the lab driver can record them in the JSONL
// trajectory: simulator requests/sec per strategy family, and the sweep
// engine's cells/sec with a worker-count determinism check (results must be
// bit-identical at 1, 2 and all hardware workers — the PR-1 contract).
#include <chrono>

#include "core/batch_engine.hpp"
#include "core/batch_state.hpp"
#include "core/simulator.hpp"
#include "core/stats.hpp"
#include "core/sweep.hpp"
#include "experiments.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/partition.hpp"
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

lab::ExperimentResult run(const lab::RunContext& ctx) {
  lab::ResultBuilder b;

  auto& throughput = b.series(
      "strategy_throughput",
      "Simulator throughput (p=4, K=64, tau=4, zipf, single pass):",
      {"strategy", "faults", "Mreq/s", "Msteps/s", "Mfaults/s"});
  const RequestSet rs = zipf_workload(4, 64, 4000, 5);
  SimConfig cfg;
  cfg.cache_size = 64;
  cfg.fault_penalty = 4;
  cfg.record_fault_timeline = false;
  bool rates_positive = true;
  const auto measure = [&](const std::string& name, CacheStrategy& strategy) {
    const auto start = std::chrono::steady_clock::now();
    const RunStats stats = simulate(cfg, rs, strategy);
    const auto stop = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(stop - start).count();
    const auto rate = [secs](Count n) {
      return secs > 0.0 ? static_cast<double>(n) / secs / 1e6 : 0.0;
    };
    const double mreq_s = rate(rs.total_requests());
    rates_positive = rates_positive && mreq_s > 0.0;
    throughput.row(name, stats.total_faults(), mreq_s, rate(stats.sim_steps),
                   rate(stats.total_faults()));
  };
  SharedStrategy lru(make_policy_factory("lru", 7));
  measure("S_LRU", lru);
  StaticPartitionStrategy even(even_partition(64, 4),
                               make_policy_factory("lru"));
  measure("sP_even_LRU", even);
  Lemma3DynamicPartition lemma3;
  measure("dP_lemma3", lemma3);
  auto fitf = SharedStrategy::fitf();
  measure("S_FITF", *fitf);

  // Sweep-engine determinism: the 105-cell partition sweep from the
  // microbenchmark, run at worker caps 1 / 2 / all — the fault vectors must
  // match bit-for-bit (PR-1 contract, tested again here from the driver's
  // master seed).
  auto& sweep_table = b.series(
      "sweep_worker_scaling",
      "Partition sweep (K=16, p=3, 105 cells) across worker caps:",
      {"workers", "cells", "wall_s", "cells/s", "identical"});
  const RequestSet sweep_rs = zipf_workload(3, 48, 1500, 11);
  SimConfig sweep_cfg;
  sweep_cfg.cache_size = 16;
  sweep_cfg.fault_penalty = 4;
  sweep_cfg.record_fault_timeline = false;
  const PolicyFactory lru_factory = make_policy_factory("lru");
  const std::vector<Partition> grid = enumerate_partitions(16, 3, 1);
  std::vector<Count> baseline;
  bool deterministic = true;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    SweepRunner sweep(SweepOptions{ctx.master_seed, workers});
    const std::vector<Count> faults =
        sweep.run(grid.size(), [&](std::size_t i, Rng& /*rng*/) {
          // Strategy objects on the hook instantiation (simulate() would
          // take the stamp kernel), the baseline batch_sweep is held to.
          StaticPartitionStrategy strategy(grid[i], lru_factory);
          return BatchEngine::run_strategy(sweep_cfg, sweep_rs, strategy, {})
              .total_faults();
        });
    if (baseline.empty()) baseline = faults;
    const bool identical = faults == baseline;
    deterministic = deterministic && identical;
    const SweepTiming& t = sweep.last_timing();
    sweep_table.row(workers == 0 ? "all" : std::to_string(workers),
                    static_cast<std::uint64_t>(t.cells), t.wall_seconds,
                    t.cells_per_second(), identical ? "yes" : "NO");
    b.sweep("E13.partition_sweep.w" +
                (workers == 0 ? std::string("all") : std::to_string(workers)),
            t);
  }

  // Batched sweep: the same 105 partition jobs through
  // SweepRunner::run_jobs, which composes them from their distinct one-core
  // stamp-kernel runs (the trace is disjoint).  The fault vector must match
  // the scalar sweep bit-for-bit — the differential contract, re-checked
  // here from the experiment's master seed — and the Mcells/s column
  // quantifies the win over the per-cell strategy objects above.
  auto& batch_table = b.series(
      "batch_sweep", "Batched partition sweep (same 105 cells, batch kernel):",
      {"cells", "wall_s", "Mcells/s", "Msteps/s", "identical"});
  std::vector<SimJob> batch_jobs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    batch_jobs[i].config = sweep_cfg;
    batch_jobs[i].requests = &sweep_rs;
    batch_jobs[i].strategy =
        BatchStrategySpec::static_partition(grid[i], BatchPolicy::kLru);
  }
  SweepRunner batch_sweep(SweepOptions{ctx.master_seed, ctx.workers});
  const std::vector<RunStats> batch_stats = batch_sweep.run_jobs(batch_jobs);
  std::vector<Count> batch_faults(batch_stats.size());
  Count batch_steps = 0;
  for (std::size_t i = 0; i < batch_stats.size(); ++i) {
    batch_faults[i] = batch_stats[i].total_faults();
    batch_steps += batch_stats[i].sim_steps;
  }
  const bool batch_identical = batch_faults == baseline;
  const SweepTiming& batch_timing = batch_sweep.last_timing();
  const double step_rate =
      batch_timing.wall_seconds > 0.0
          ? static_cast<double>(batch_steps) / batch_timing.wall_seconds
          : 0.0;
  batch_table.row(static_cast<std::uint64_t>(batch_timing.cells),
                  batch_timing.wall_seconds,
                  batch_timing.cells_per_second() / 1e6, step_rate / 1e6,
                  batch_identical ? "yes" : "NO");
  b.sweep("E13.batch_sweep", batch_timing);

  // LRU fault-curve kernel: the single-pass Mattson path of
  // policy_fault_curves against the per-k reference loop it replaced; the
  // curves must agree cell-for-cell.
  auto& curve_table = b.series(
      "lru_fault_curve",
      "LRU fault curves f_j(0..K), p=4, K=64, zipf n=4x20000:",
      {"path", "cells", "wall_s", "cells/s"});
  const RequestSet curve_rs = zipf_workload(4, 96, 20000, 12);
  const std::size_t curve_k = 64;
  const PolicyFactory curve_lru = make_policy_factory("lru");
  const auto time_curves = [&](const char* label, auto&& build) {
    const auto start = std::chrono::steady_clock::now();
    FaultCurves curves = build();
    const auto stop = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(stop - start).count();
    const std::uint64_t cells =
        static_cast<std::uint64_t>(curves.size()) * (curve_k + 1);
    curve_table.row(label, cells, secs,
                    secs > 0.0 ? static_cast<double>(cells) / secs : 0.0);
    return curves;
  };
  const FaultCurves mattson = time_curves("mattson_single_pass", [&] {
    return policy_fault_curves(curve_rs, curve_k, curve_lru);
  });
  const FaultCurves per_k = time_curves("per_k_reference", [&] {
    FaultCurves curves(curve_rs.num_cores());
    for (CoreId j = 0; j < curve_rs.num_cores(); ++j) {
      curves[j].resize(curve_k + 1);
      for (std::size_t k = 0; k <= curve_k; ++k) {
        curves[j][k] =
            single_core_policy_faults(curve_rs.sequence(j), k, curve_lru);
      }
    }
    return curves;
  });
  const bool curves_agree = mattson == per_k;

  // Per-cell latency distribution: every cell of the 105-cell sweep timed
  // individually into the log-bucketed LatencyHistogram (core/stats.hpp) —
  // the same helper mcpd's shards and the loadgen use for epoch latency.
  // The verdict checks the histogram's invariants (count == cells, ordered
  // quantiles, max >= p99): cell wall times vary by host, the shape must
  // not.
  auto& latency_table = b.series(
      "cell_latency",
      "Per-cell simulate() latency over the 105-cell grid (log buckets):",
      {"cells", "p50_ns", "p90_ns", "p99_ns", "max_ns"});
  LatencyHistogram cell_latency;
  for (const Partition& cell : grid) {
    const auto start = std::chrono::steady_clock::now();
    StaticPartitionStrategy strategy(cell, lru_factory);
    const RunStats stats = simulate(sweep_cfg, sweep_rs, strategy);
    const auto stop = std::chrono::steady_clock::now();
    (void)stats;
    cell_latency.record_seconds(
        std::chrono::duration<double>(stop - start).count());
  }
  latency_table.row(cell_latency.count(), cell_latency.p50(),
                    cell_latency.p90(), cell_latency.p99(),
                    cell_latency.max_value());
  const bool latency_sane =
      cell_latency.count() == grid.size() &&
      cell_latency.p50() <= cell_latency.p90() &&
      cell_latency.p90() <= cell_latency.p99() &&
      cell_latency.p99() <= cell_latency.max_value() &&
      cell_latency.p50() > 0;

  b.note("Full microbenchmark suite: build target bench_sim_throughput "
         "(google-benchmark; not driven by mcpaging-lab).");

  return std::move(b).finish(
      rates_positive && deterministic && batch_identical && curves_agree &&
          latency_sane,
      "simulator sustains positive throughput on every strategy family; "
      "sweep results bit-identical across worker counts and on the batch "
      "kernel; Mattson curve matches the per-k reference; per-cell latency "
      "histogram is well-formed (ordered quantiles over all cells)");
}

}  // namespace

void mcp::experiments::register_e13(lab::ExperimentRegistry& registry) {
  registry.add({
      "E13",
      "Engine throughput & sweep determinism (lab edition)",
      "simulator steps/faults/requests per second per strategy family; "
      "partition sweep bit-identical at 1/2/all workers; batch-kernel "
      "sweep (Mcells/s) bit-identical to it; Mattson vs per-k LRU "
      "fault-curve cells/sec (see bench_sim_throughput for the full "
      "google-benchmark suite)",
      "EXPERIMENTS.md §E13; PR-1 sweep contract",
      {"engine", "throughput", "sweep", "batch", "fault-curve"},
      "p=4, K=64 zipf single-pass; 105-cell partition sweep at worker caps "
      "{1,2,all} and on the batch kernel; K=64 LRU fault curves both paths",
      run,
  });
}
