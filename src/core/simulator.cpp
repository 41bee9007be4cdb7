#include "core/simulator.hpp"

#include "core/batch_engine.hpp"
#include "core/error.hpp"

namespace mcp {

Simulator::Simulator(SimConfig config) : config_(config) {
  MCP_REQUIRE(config_.cache_size > 0, "SimConfig.cache_size must be positive");
}

void Simulator::add_observer(SimObserver* observer) {
  MCP_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

RunStats Simulator::run(const RequestSet& requests, CacheStrategy& strategy) {
  // A FixedStream has no observer of its own, so the run fires exactly the
  // registered observers.
  return BatchEngine::run_strategy(config_, requests, strategy, observers_);
}

RunStats Simulator::run_stream(RequestStream& stream, CacheStrategy& strategy,
                               const RequestSet* offline_info) {
  active_observers_.clear();
  if (SimObserver* obs = stream.observer(); obs != nullptr) {
    active_observers_.push_back(obs);
  }
  active_observers_.insert(active_observers_.end(), observers_.begin(),
                           observers_.end());
  RunStats stats = BatchEngine::run_strategy(config_, stream, strategy,
                                             offline_info, active_observers_);
  active_observers_.clear();
  return stats;
}

RunStats simulate(const SimConfig& config, const RequestSet& requests,
                  CacheStrategy& strategy) {
  return BatchEngine::run_routed(config, requests, strategy);
}

}  // namespace mcp
