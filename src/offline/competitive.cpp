#include "offline/competitive.hpp"

#include "core/error.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "offline/ftf_solver.hpp"

namespace mcp {

namespace {

/// One trial's measurement (a sweep cell).
struct TrialOutcome {
  double ratio = 0.0;
  bool optimal = false;
  bool nonempty = false;
};

}  // namespace

CompetitiveReport measure_competitive_ratio(const StrategyFactory& strategy,
                                            const InstanceGenerator& generator,
                                            std::size_t trials) {
  MCP_REQUIRE(trials > 0, "measure_competitive_ratio: no trials");
  // Each trial solves its own instance exactly and simulates the strategy on
  // it — fully independent, so the trials are swept on the shared pool.  The
  // reduction below walks the results in trial order, so the report (mean
  // included: fixed summation order) is bit-identical for any worker count.
  SweepRunner sweep;
  const std::vector<TrialOutcome> outcomes =
      sweep.run(trials, [&](std::size_t trial, Rng& /*rng*/) {
        TrialOutcome outcome;
        const OfflineInstance instance = generator(trial);
        if (instance.requests.total_requests() == 0) return outcome;
        const Count opt = solve_ftf(instance).min_faults;
        MCP_ASSERT_MSG(opt > 0, "nonempty instance must have compulsory misses");
        const auto online = strategy();
        const Count faults =
            simulate(instance.sim_config(), instance.requests, *online)
                .total_faults();
        outcome.nonempty = true;
        outcome.ratio = static_cast<double>(faults) / static_cast<double>(opt);
        outcome.optimal = faults == opt;
        return outcome;
      });

  CompetitiveReport report;
  double ratio_sum = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const TrialOutcome& outcome = outcomes[trial];
    if (!outcome.nonempty) continue;
    ++report.samples;
    ratio_sum += outcome.ratio;
    if (outcome.optimal) ++report.optimal_hits;
    if (outcome.ratio > report.max_ratio) {
      report.max_ratio = outcome.ratio;
      report.worst_trial = trial;
    }
  }
  MCP_REQUIRE(report.samples > 0, "all generated instances were empty");
  report.mean_ratio = ratio_sum / static_cast<double>(report.samples);
  return report;
}

CompetitiveReport measure_competitive_ratio(const BatchStrategySpec& strategy,
                                            const InstanceGenerator& generator,
                                            std::size_t trials) {
  MCP_REQUIRE(trials > 0, "measure_competitive_ratio: no trials");
  struct TrialCase {
    OfflineInstance instance;
    Count opt = 0;
    bool nonempty = false;
  };
  // Phase 1: generate and exactly solve each trial — the expensive,
  // per-trial-heterogeneous part — as independent sweep cells.
  SweepRunner sweep;
  const std::vector<TrialCase> cases =
      sweep.run(trials, [&](std::size_t trial, Rng& /*rng*/) {
        TrialCase tc;
        tc.instance = generator(trial);
        if (tc.instance.requests.total_requests() == 0) return tc;
        tc.opt = solve_ftf(tc.instance).min_faults;
        MCP_ASSERT_MSG(tc.opt > 0,
                       "nonempty instance must have compulsory misses");
        tc.nonempty = true;
        return tc;
      });

  // Phase 2: simulate the strategy on every nonempty instance on the batch
  // kernel.  Jobs are built in trial order, so the reduction below walks the
  // same order as the scalar overload's — bit-identical report.
  std::vector<SimJob> jobs;
  std::vector<std::size_t> trial_of_job;
  jobs.reserve(trials);
  trial_of_job.reserve(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    if (!cases[trial].nonempty) continue;
    SimJob job;
    job.config = cases[trial].instance.sim_config();
    job.config.record_fault_timeline = false;  // totals only
    job.requests = &cases[trial].instance.requests;
    job.strategy = strategy;
    jobs.push_back(std::move(job));
    trial_of_job.push_back(trial);
  }
  MCP_REQUIRE(!jobs.empty(), "all generated instances were empty");
  const std::vector<RunStats> stats = sweep.run_jobs(jobs);

  CompetitiveReport report;
  double ratio_sum = 0.0;
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const std::size_t trial = trial_of_job[idx];
    const Count faults = stats[idx].total_faults();
    const double ratio =
        static_cast<double>(faults) / static_cast<double>(cases[trial].opt);
    ++report.samples;
    ratio_sum += ratio;
    if (faults == cases[trial].opt) ++report.optimal_hits;
    if (ratio > report.max_ratio) {
      report.max_ratio = ratio;
      report.worst_trial = trial;
    }
  }
  report.mean_ratio = ratio_sum / static_cast<double>(report.samples);
  return report;
}

}  // namespace mcp
