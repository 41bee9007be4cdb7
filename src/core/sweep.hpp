// Deterministic parallel sweep engine.
//
// A "sweep" is a grid of independent cells — (strategy x policy x K x p x
// tau) configurations in the benches, candidate partitions in partition
// search, trials in the competitive-ratio harness.  SweepRunner executes the
// cells on the shared ThreadPool and guarantees that the result vector is
// bit-identical for ANY worker count (1, N, or hardware):
//
//  * each cell writes only its own slot of the pre-sized result vector, so
//    scheduling order cannot reorder results;
//  * each cell draws randomness only from a private Rng derived from
//    (master_seed, cell_index) via the rng.hpp splitter, so no cell ever
//    observes another cell's draws.
//
// That contract — asserted by tests/test_sweep_determinism.cpp — is what
// makes the repo's bench trajectory trustworthy: a result can be reproduced
// on a laptop or a 128-way box from the master seed alone.
//
// Static analysis: the sweep layer coordinates by *disjoint-slot
// confinement*, not locks — there is no capability to annotate (see
// core/annotations.hpp for the conventions).  The lock-coordinated half of
// the contract lives in ThreadPool, whose state is MCP_GUARDED_BY-checked
// by the `analyze` CI job; the determinism half (per-cell RNG, no wall
// clock, no hash-order emission) is enforced by tools/verify/mcp_verify.py.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"

namespace mcp {

struct SimJob;  // core/batch_state.hpp

struct SweepOptions {
  /// Root of every cell's RNG stream; two sweeps with equal seeds and equal
  /// cell functions produce equal results.
  std::uint64_t master_seed = 0x5EED;
  /// Concurrency cap: 0 = one runner per pool worker plus the caller, 1 =
  /// serial (still bit-identical to any parallel run).
  std::size_t max_threads = 0;
};

/// Wall-clock accounting of the most recent sweep — the repo's perf
/// baseline channel.  Benches emit it via json() into their output so a CI
/// trajectory can track cells/sec.
struct SweepTiming {
  std::size_t cells = 0;
  double wall_seconds = 0.0;
  std::size_t max_threads = 0;  ///< as configured (0 = all workers)

  [[nodiscard]] double cells_per_second() const noexcept;
  /// One-line JSON record, e.g.
  /// {"sweep":"E12.zipf","cells":36,"wall_seconds":0.012,...}.
  [[nodiscard]] std::string json(const std::string& sweep_name) const;
};

/// The per-cell RNG stream: depends on (master_seed, cell_index) only —
/// never on worker count or scheduling.  Distinct indices give statistically
/// independent streams (SplitMix64 mixing, as Rng::fork).
[[nodiscard]] Rng sweep_cell_rng(std::uint64_t master_seed,
                                 std::size_t cell_index) noexcept;

class SweepRunner {
 public:
  SweepRunner() = default;
  explicit SweepRunner(SweepOptions options) : options_(options) {}

  /// Evaluates fn(cell_index, rng) for every cell in [0, cells) on the
  /// shared pool and returns the results in cell order.  The result type
  /// must be default-constructible.  Deterministic for any max_threads:
  /// the pool's block claims decide only which runner evaluates a cell.
  template <typename Fn>
  auto run(std::size_t cells, Fn&& fn)
      -> std::vector<
          std::decay_t<std::invoke_result_t<Fn&, std::size_t, Rng&>>> {
    using Cell = std::decay_t<std::invoke_result_t<Fn&, std::size_t, Rng&>>;
    std::vector<Cell> results(cells);
    const auto start = std::chrono::steady_clock::now();
    if (cells > 0) {
      ThreadPool::global().run_indexed(
          cells,
          [&](std::size_t i) {
            Rng rng = sweep_cell_rng(options_.master_seed, i);
            results[i] = fn(i, rng);
          },
          options_.max_threads);
    }
    const auto stop = std::chrono::steady_clock::now();
    timing_.cells = cells;
    timing_.wall_seconds = std::chrono::duration<double>(stop - start).count();
    timing_.max_threads = options_.max_threads;
    return results;
  }

  /// Executes pre-materialized simulation jobs on the stamp kernels
  /// (core/batch_engine.hpp), dispatched over the shared pool like run()'s
  /// cells.  A job runs as one kernel, except that the static-partition
  /// jobs of a disjoint trace whose jobs share per-core runs — the same
  /// (core, part size, policy, tau) — are composed from those runs, each
  /// computed once by a one-region paging pass over the core's sequence
  /// (R_j alone on its k_j cells is classic paging).  Planning is serial
  /// and linear in jobs x cores: jobs group by trace and runs deduplicate
  /// through hash indexes on packed keys, with no sort.  The kernel jobs
  /// and runs, then the compositions, are each one run_indexed call, so a
  /// grid of cheap jobs pays the pool per claimed block (thread_pool.hpp).
  /// Results, sim_steps and errors included, are bit-identical to running
  /// each job through mcp::Simulator with the matching strategy object,
  /// for any worker count.  Records last_timing() like run().  Defined in
  /// batch_engine.cpp.
  [[nodiscard]] std::vector<RunStats> run_jobs(std::span<const SimJob> jobs);

  [[nodiscard]] const SweepOptions& options() const noexcept { return options_; }
  /// Timing of the most recent run() (zeroed cells before the first run).
  [[nodiscard]] const SweepTiming& last_timing() const noexcept {
    return timing_;
  }

 private:
  SweepOptions options_{};
  SweepTiming timing_{};
};

}  // namespace mcp
