// Shared helpers for mcpaging tests: small random workload builders used by
// property tests (the workload library proper lives in src/workload; these
// are deliberately tiny and independent so core tests don't depend on it).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/request.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/strategy.hpp"

namespace mcp::testing {

/// Random disjoint request set: core j draws uniformly from its own block of
/// `pages_per_core` page ids.
inline RequestSet random_disjoint_workload(Rng& rng, std::size_t num_cores,
                                           std::size_t pages_per_core,
                                           std::size_t requests_per_core) {
  RequestSet rs;
  for (std::size_t j = 0; j < num_cores; ++j) {
    RequestSequence seq;
    const PageId base = static_cast<PageId>(j * pages_per_core);
    for (std::size_t i = 0; i < requests_per_core; ++i) {
      seq.push_back(base + static_cast<PageId>(rng.below(pages_per_core)));
    }
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

/// Random request set where all cores share one page universe (non-disjoint
/// with high probability).
inline RequestSet random_shared_workload(Rng& rng, std::size_t num_cores,
                                         std::size_t universe,
                                         std::size_t requests_per_core) {
  RequestSet rs;
  for (std::size_t j = 0; j < num_cores; ++j) {
    RequestSequence seq;
    for (std::size_t i = 0; i < requests_per_core; ++i) {
      seq.push_back(static_cast<PageId>(rng.below(universe)));
    }
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

/// SimConfig shorthand.
inline SimConfig sim_config(std::size_t cache_size, Time tau) {
  SimConfig cfg;
  cfg.cache_size = cache_size;
  cfg.fault_penalty = tau;
  return cfg;
}

/// Runs `strategy` through simulate(), which takes the stamp kernel when
/// the strategy has a kernel form, and then as an object on the hook
/// instantiation (Simulator::run), and expects the two RunStats to agree
/// field for field.  Returns the hook run's; the object reads as after it.
/// Tests of a strategy object's own behaviour run it through here, so the
/// object itself is exercised whatever simulate() routes.
inline RunStats run_both_paths(const SimConfig& config,
                               const RequestSet& requests,
                               CacheStrategy& strategy) {
  const RunStats routed = simulate(config, requests, strategy);
  RunStats stats = Simulator(config).run(requests, strategy);
  const std::string what = strategy.name();
  EXPECT_EQ(routed.num_cores(), stats.num_cores()) << what;
  EXPECT_EQ(routed.end_time, stats.end_time) << what;
  EXPECT_EQ(routed.sim_steps, stats.sim_steps) << what;
  for (CoreId j = 0; j < routed.num_cores() && j < stats.num_cores(); ++j) {
    const CoreStats& a = routed.core(j);
    const CoreStats& b = stats.core(j);
    EXPECT_EQ(a.hits, b.hits) << what << " core " << j;
    EXPECT_EQ(a.faults, b.faults) << what << " core " << j;
    EXPECT_EQ(a.requests, b.requests) << what << " core " << j;
    EXPECT_EQ(a.completion_time, b.completion_time) << what << " core " << j;
    EXPECT_EQ(a.fault_times, b.fault_times) << what << " core " << j;
  }
  return stats;
}

}  // namespace mcp::testing
