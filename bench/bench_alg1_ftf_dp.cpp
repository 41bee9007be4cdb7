// Experiment E8 — Theorem 6 / Algorithm 1: the optimal FTF solver is
// polynomial in the sequence length n (for constant K, p) but exponential
// in K and p.  We measure states stored and wall time on both axes, and
// re-verify exactness against the simulator-driven exhaustive search.
#include <algorithm>
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
    const FtfResult clean = solve_ftf(inst);
    FtfOptions budget_options;
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
  return std::move(b).finish(
      poly_n && grows_k && exact && spill_agrees,
      "poly-in-n, exponential-in-K scaling; exact optimum; "
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
      "n in {8..128} at K=2; K in {2..5} at n=16; "
      "quarter-budget spill reruns; 10 exactness trials",
      run,
  });
}
