// Experiment E9 — Theorem 7 / Algorithm 2: the PIF decision procedure runs
// in time polynomial in the sequence length (layer width stays bounded by
// the Pareto frontier), and agrees with the exhaustive search.
#include <chrono>

#include "core/rng.hpp"
#include "experiments.hpp"
#include "offline/exhaustive.hpp"
#include "offline/pif_solver.hpp"
#include "workload/workload.hpp"

namespace {

using namespace mcp;

PifInstance random_pif(std::size_t per_core, Time deadline, Count bound,
                       std::uint64_t seed) {
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = 3;
  core.length = per_core;
  PifInstance inst;
  inst.base.requests = make_workload(homogeneous_spec(2, core, true, seed));
  inst.base.cache_size = 2;
  inst.base.tau = 1;
  inst.deadline = deadline;
  inst.bounds = {bound, bound};
  return inst;
}

double solve_ms(const PifInstance& inst, PifResult* out) {
  const auto start = std::chrono::steady_clock::now();
  *out = solve_pif(inst);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

lab::ExperimentResult run(const lab::RunContext& /*ctx*/) {
  lab::ResultBuilder b;

  auto& deadline_table = b.series(
      "width_vs_deadline",
      "Scaling in the deadline (p=2, K=2, tau=1, generous bounds):",
      {"deadline", "feasible", "peak_width", "expanded", "ms", "kstates/s"});
  std::vector<std::size_t> widths;
  for (Time deadline : {Time{8}, Time{16}, Time{32}, Time{64}, Time{128}}) {
    const PifInstance inst =
        random_pif(/*per_core=*/deadline, deadline, deadline, 31);
    PifResult result;
    const double ms = solve_ms(inst, &result);
    widths.push_back(result.peak_layer_width);
    deadline_table.row(
        static_cast<std::uint64_t>(deadline), result.feasible ? "yes" : "no",
        static_cast<std::uint64_t>(result.peak_layer_width),
        static_cast<std::uint64_t>(result.states_expanded), ms,
        ms <= 0.0 ? 0.0 : static_cast<double>(result.states_expanded) / ms);
  }

  auto& bounds_table =
      b.series("tightening_bounds", "Tightening bounds (deadline=24, n/core=24):",
               {"bound", "feasible", "peak_width", "decided_at"});
  for (Count bound : {Count{24}, Count{12}, Count{8}, Count{6}, Count{4}, Count{2}}) {
    const PifInstance inst = random_pif(24, 24, bound, 32);
    const PifResult result = solve_pif(inst);
    bounds_table.row(bound, result.feasible ? "yes" : "no",
                     static_cast<std::uint64_t>(result.peak_layer_width),
                     static_cast<std::uint64_t>(result.decided_at));
  }

  b.note("Agreement with exhaustive search (20 random instances):");
  Rng rng(404);
  std::size_t agreements = 0;
  std::size_t total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const PifInstance inst =
        random_pif(5, 3 + rng.below(9), rng.below(5), 500 + static_cast<std::uint64_t>(trial));
    const bool dp = solve_pif(inst).feasible;
    const bool brute = exhaustive_pif(inst).feasible;
    agreements += dp == brute ? 1 : 0;
    ++total;
  }
  b.notef("  %zu/%zu agree", agreements, total);

  // Peak width growing sub-quadratically in deadline indicates Pareto
  // pruning is doing its job (worst case is much larger).
  const double growth = static_cast<double>(widths.back()) /
                        static_cast<double>(widths.front());
  return std::move(b).finish(agreements == total && growth < 256.0,
                             "decisions exact; layer width stays polynomial");
}

}  // namespace

void mcp::experiments::register_e9(lab::ExperimentRegistry& registry) {
  registry.add({
      "E9",
      "Theorem 7 / Algorithm 2 — PIF decision solver scaling",
      "layered search is polynomial in n for fixed K,p; decisions match the "
      "exhaustive search",
      "EXPERIMENTS.md §E9; paper Theorem 7 / Algorithm 2",
      {"theorem", "offline", "solver", "scaling"},
      "deadline in {8..128}; bounds in {24..2} at deadline=24; 20 agreement "
      "trials",
      run,
  });
}
