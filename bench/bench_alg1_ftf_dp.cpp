// Experiment E8 — Theorem 6 / Algorithm 1: the optimal FTF solver is
// polynomial in the sequence length n (for constant K, p) but exponential
// in K and p.  We measure states stored and wall time on both axes, and
// re-verify exactness against the simulator-driven exhaustive search.
#include <algorithm>
#include <array>
#include <chrono>

#include "core/rng.hpp"
#include "experiments.hpp"
#include "offline/exhaustive.hpp"
#include "offline/ftf_solver.hpp"
#include "workload/workload.hpp"

namespace {

using namespace mcp;

OfflineInstance random_instance(std::size_t p, std::size_t pages_per_core,
                                std::size_t per_core, std::size_t K, Time tau,
                                std::uint64_t seed) {
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = pages_per_core;
  core.length = per_core;
  OfflineInstance inst;
  inst.requests = make_workload(homogeneous_spec(p, core, true, seed));
  inst.cache_size = K;
  inst.tau = tau;
  return inst;
}

double solve_ms(const OfflineInstance& inst, FtfResult* out) {
  const auto start = std::chrono::steady_clock::now();
  *out = solve_ftf(inst);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// States stored per second, in thousands (the perf-gate unit).
double kstates_per_sec(std::size_t states, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(states) / ms;
}

lab::ExperimentResult run(const lab::RunContext& /*ctx*/) {
  lab::ResultBuilder b;

  auto& n_table = b.series(
      "states_vs_n", "Scaling in n (p=2, K=2, tau=1, 3 pages/core):",
      {"n/core", "faults", "states", "ms", "kstates/s", "states/n^2"});
  std::vector<double> per_n2;
  for (std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
    const OfflineInstance inst = random_instance(2, 3, n, 2, 1, 77);
    FtfResult result;
    const double ms = solve_ms(inst, &result);
    const double nn = static_cast<double>(n);
    per_n2.push_back(static_cast<double>(result.states_stored) / (nn * nn));
    n_table.row(static_cast<std::uint64_t>(n), result.min_faults,
                static_cast<std::uint64_t>(result.states_stored), ms,
                kstates_per_sec(result.states_stored, ms), per_n2.back());
  }

  auto& k_table = b.series(
      "states_vs_k", "Scaling in K (p=2, n/core=16, 5 pages/core, tau=1):",
      {"K", "faults", "states", "ms", "kstates/s"});
  std::vector<std::size_t> states_by_k;
  for (std::size_t K : {2u, 3u, 4u, 5u}) {
    const OfflineInstance inst = random_instance(2, 5, 16, K, 1, 78);
    FtfResult result;
    const double ms = solve_ms(inst, &result);
    states_by_k.push_back(result.states_stored);
    k_table.row(static_cast<std::uint64_t>(K), result.min_faults,
                static_cast<std::uint64_t>(result.states_stored), ms,
                kstates_per_sec(result.states_stored, ms));
  }

  // Bucket-synchronous parallel expansion: schedules are bit-identical at
  // any worker count, so the series re-checks the invariants and reports
  // the projected capacity at W dedicated workers — states / (serial_ns +
  // expand_busy_ns / W), with serial_ns the solve wall minus the parallel
  // expansion/dedup passes and expand_busy_ns their summed thread CPU time
  // (the capacity_rps convention; the wall clock itself cannot show the
  // speedup on a small or oversubscribed machine).  Every row projects the
  // same measured split at that row's W — busy is CPU time, so the split
  // does not depend on the executing worker count — making the w=1 row the
  // engine's own single-worker projection, the Amdahl denominator of
  // speedup8.  The w=1 wall columns show the serial path for scale.
  auto& par_table = b.series(
      "ftf_parallel_speedup",
      "Chunked-wave expansion (3 cores, 20 req/core, 5 pages/core, K=5, "
      "tau=2):",
      {"workers", "ms", "kstates/s", "capacity_kst/s", "speedup"});
  bool parallel_agrees = true;
  double speedup8 = 0.0;
  {
    const OfflineInstance inst = random_instance(3, 5, 20, 5, 2, 78);
    FtfOptions options;
    options.workers = 1;
    const auto s0 = std::chrono::steady_clock::now();
    const FtfResult serial = solve_ftf(inst, options);
    const auto s1 = std::chrono::steady_clock::now();
    const double serial_wall_ns =
        std::chrono::duration<double, std::nano>(s1 - s0).count();
    double split_serial_ns = 0.0;
    double split_busy_ns = 0.0;
    std::array<double, 4> wall_by_row{serial_wall_ns, 0.0, 0.0, 0.0};
    for (std::size_t row = 1; row < 4; ++row) {
      const std::size_t w = std::size_t{1} << row;
      options.workers = w;
      const auto start = std::chrono::steady_clock::now();
      const FtfResult result = solve_ftf(inst, options);
      const auto stop = std::chrono::steady_clock::now();
      const double wall_ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      wall_by_row[row] = wall_ns;
      parallel_agrees = parallel_agrees &&
                        result.min_faults == serial.min_faults &&
                        result.states_expanded == serial.states_expanded &&
                        result.states_stored == serial.states_stored;
      // Every chunked run measures the same underlying split; scheduler
      // noise only inflates either side, so keep the smallest estimates.
      const double run_serial_ns =
          wall_ns - static_cast<double>(result.expand_wall_ns);
      if (split_serial_ns == 0.0 || run_serial_ns < split_serial_ns) {
        split_serial_ns = run_serial_ns;
      }
      const double run_busy_ns = static_cast<double>(result.expand_busy_ns);
      if (split_busy_ns == 0.0 || run_busy_ns < split_busy_ns) {
        split_busy_ns = run_busy_ns;
      }
    }
    const auto capacity = [&](std::size_t w) {
      const double projected_ns =
          split_serial_ns + split_busy_ns / static_cast<double>(w);
      return kstates_per_sec(serial.states_stored, projected_ns / 1e6);
    };
    for (std::size_t row = 0; row < 4; ++row) {
      const std::size_t w = std::size_t{1} << row;
      const double speedup = capacity(w) / capacity(1);
      if (w == 8) speedup8 = speedup;
      par_table.row(static_cast<std::uint64_t>(w), wall_by_row[row] / 1e6,
                    kstates_per_sec(serial.states_stored,
                                    wall_by_row[row] / 1e6),
                    capacity(w), speedup);
    }
  }

  // Out-of-core storage: rerun an instance under a RAM budget of a quarter
  // of its state-arena footprint (the spillable quantity — side arrays
  // never spill) and check the spilled solve stays bit-equal while
  // actually evicting.
  auto& spill_table = b.series(
      "bytes_per_state",
      "Interner footprint, unbounded vs quarter-RAM spill budget:",
      {"n/core", "states", "bytes/state", "peak_kb", "budget_kb", "spill_kb"});
  bool spill_agrees = true;
  for (std::size_t n : {32u, 48u}) {
    const OfflineInstance inst = random_instance(2, 5, n, 4, 2, 78);
    FtfOptions clean_options;
    clean_options.workers = 1;
    const FtfResult clean = solve_ftf(inst, clean_options);
    FtfOptions budget_options = clean_options;
    budget_options.expected_states = clean.states_stored;
    budget_options.storage.segment_bytes = 1024;
    budget_options.storage.ram_bytes =
        std::max<std::size_t>(clean.arena_bytes / 4, 2048);
    const FtfResult budgeted = solve_ftf(inst, budget_options);
    spill_agrees = spill_agrees && budgeted.min_faults == clean.min_faults &&
                   budgeted.states_stored == clean.states_stored &&
                   budgeted.bytes_spilled > 0;
    spill_table.row(
        static_cast<std::uint64_t>(n),
        static_cast<std::uint64_t>(clean.states_stored),
        static_cast<double>(clean.peak_bytes_in_ram) /
            static_cast<double>(clean.states_stored),
        static_cast<double>(clean.peak_bytes_in_ram) / 1024.0,
        static_cast<double>(budget_options.storage.ram_bytes) / 1024.0,
        static_cast<double>(budgeted.bytes_spilled) / 1024.0);
  }

  b.note("Exactness spot-check vs exhaustive search (10 instances):");
  Rng rng(99);
  bool exact = true;
  for (int trial = 0; trial < 10; ++trial) {
    const OfflineInstance inst =
        random_instance(2, 3, 5, 2, rng.below(3), 200 + static_cast<std::uint64_t>(trial));
    const Count dp = solve_ftf(inst).min_faults;
    const Count brute = exhaustive_ftf(inst).min_faults;
    if (dp != brute) {
      exact = false;
      b.notef("  MISMATCH trial %d: dp=%llu brute=%llu", trial,
              static_cast<unsigned long long>(dp),
              static_cast<unsigned long long>(brute));
    }
  }
  b.notef("  %s", exact ? "all exact" : "MISMATCH FOUND");

  // Polynomial in n: states/n^2 must not explode (allow slack for small-n
  // noise).  Exponential-ish in K: strictly increasing states.
  const bool poly_n = per_n2.back() < 4.0 * per_n2.front();
  const bool grows_k = states_by_k.back() > 4 * states_by_k.front();
  // The 8-worker capacity projection must clear the same 3x floor the
  // perf-smoke --speedup gate enforces on BENCH_OFFLINE.json.
  const bool parallel_ok = parallel_agrees && speedup8 >= 3.0;
  return std::move(b).finish(
      poly_n && grows_k && exact && parallel_ok && spill_agrees,
      "poly-in-n, exponential-in-K scaling; exact optimum; "
      "parallel waves bit-equal with >=3x projected capacity at 8 workers; "
      "quarter-budget spill bit-equal");
}

}  // namespace

void mcp::experiments::register_e8(lab::ExperimentRegistry& registry) {
  registry.add({
      "E8",
      "Theorem 6 / Algorithm 1 — optimal FTF solver scaling",
      "polynomial in n for fixed K,p; exponential in K and p; always exact "
      "(== exhaustive search)",
      "EXPERIMENTS.md §E8; paper Theorem 6 / Algorithm 1",
      {"theorem", "offline", "solver", "scaling"},
      "n in {8..128} at K=2; K in {2..5} at n=16; workers in {1..8}; "
      "quarter-budget spill reruns; 10 exactness trials",
      run,
  });
}
