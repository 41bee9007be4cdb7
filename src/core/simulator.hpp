// The discrete-time multicore shared-cache paging simulator.
//
// Implements the model of Section 3 of the paper exactly:
//   * one shared cache of K pages serves p request sequences;
//   * all ready cores issue one request per timestep, served logically in
//     increasing core id (online strategies never see later same-step
//     requests);
//   * a hit completes within its step; a fault evicts its victim
//     immediately, reserves the cell, and delays the remainder of the
//     faulting core's sequence by an additive tau (the request occupies
//     tau+1 steps, the fetched page becomes usable at issue_time + tau + 1);
//   * fetches proceed in parallel across cores; reserved cells cannot be
//     evicted.
//
// The simulator is the single source of truth: strategies only *propose*
// evictions, and every proposal is validated against CacheState before it
// is applied, so a buggy or dishonest strategy cannot corrupt a run's
// accounting.
#pragma once

#include <vector>

#include "core/events.hpp"
#include "core/request.hpp"
#include "core/stats.hpp"
#include "core/strategy.hpp"
#include "core/stream.hpp"
#include "core/types.hpp"

namespace mcp {

class Simulator {
 public:
  explicit Simulator(SimConfig config);

  /// Registers a passive observer for subsequent runs (not owned; must
  /// outlive the run).  Observers fire in registration order, after the
  /// stream's own observer.
  void add_observer(SimObserver* observer);
  void clear_observers() { observers_.clear(); }

  /// Serves a materialized request set with `strategy`.  The strategy's
  /// attach() receives the request set, so offline strategies may use it.
  RunStats run(const RequestSet& requests, CacheStrategy& strategy);

  /// Serves requests pulled from `stream` (possibly adaptive).  If
  /// `offline_info` is non-null it is forwarded to the strategy's attach();
  /// adaptive runs normally pass nullptr so the strategy stays online.
  RunStats run_stream(RequestStream& stream, CacheStrategy& strategy,
                      const RequestSet* offline_info = nullptr);

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  SimConfig config_;
  std::vector<SimObserver*> observers_;
  std::vector<SimObserver*> active_observers_;  // stream observer + observers_
};

/// Convenience: one-shot run of `strategy` on `requests` under `config`.
RunStats simulate(const SimConfig& config, const RequestSet& requests,
                  CacheStrategy& strategy);

}  // namespace mcp
