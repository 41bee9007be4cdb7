#include "offline/makespan_solver.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "offline/packed_space.hpp"
#include "offline/packed_state.hpp"

namespace mcp {

MakespanResult solve_min_makespan(const OfflineInstance& instance,
                                  const MakespanOptions& options) {
  const PackedTransitionSystem system(instance, options.victim_rule);
  PackedTransitionSystem::StepScratch scratch;
  StateInterner interner(system.state_words());

  // Completion time of a terminal state first reached at the start of step
  // `t`: its last service step was t-1, extended by any fetch still in
  // flight (fetch r means that fetch lands at t-1+r).
  const auto terminal_makespan = [&system](const std::uint64_t* state,
                                           Time t) -> Time {
    std::uint32_t residual = 0;
    for (CoreId j = 0; j < system.num_cores(); ++j) {
      residual = std::max(residual, system.fetch_left(state, j));
    }
    if (t == 0) return residual;  // empty instance
    return t - 1 + residual;
  };

  // Every distinct state is interned once for the whole search; a layer is
  // the list of distinct ids reached at the start of one step.  A state can
  // recur in a later layer (a path with fewer faults reaches it sooner), so
  // each layer is deduplicated on its own: listed[id] is one past the last
  // step whose successor layer listed id.
  std::vector<std::uint32_t> layer;
  std::vector<std::uint32_t> next;
  std::vector<Time> listed;
  {
    std::vector<std::uint64_t> start(system.state_words());
    system.initial(start.data());
    layer.push_back(interner.intern(start.data()).first);
  }

  MakespanResult result;
  Time best = kTimeNever;
  for (Time t = 0;; ++t) {
    // Harvest terminals; once layer start can no longer beat the incumbent,
    // stop.
    for (const std::uint32_t id : layer) {
      const std::uint64_t* state = interner.state(id);
      if (system.is_terminal(state)) {
        best = std::min(best, terminal_makespan(state, t));
      }
    }
    if (best != kTimeNever && (t == 0 || t - 1 >= best)) break;

    next.clear();
    for (const std::uint32_t id : layer) {
      const std::uint64_t* state = interner.state(id);
      if (system.is_terminal(state)) continue;  // done; nothing to expand
      ++result.states_expanded;
      system.expand(state, scratch, [&](const PackedOutcome& outcome) {
        const std::uint32_t nid = interner.intern(outcome.next).first;
        if (nid >= listed.size()) listed.resize(interner.size(), 0);
        if (listed[nid] == t + 1) return;
        listed[nid] = t + 1;
        next.push_back(nid);
      });
    }
    if (next.empty()) {
      // All states terminal: the harvest above already set `best`.
      MCP_REQUIRE(best != kTimeNever, "makespan search: dead end");
      break;
    }
    std::swap(layer, next);
    result.peak_layer_width = std::max(result.peak_layer_width, layer.size());
    if (options.max_layer_width != 0 &&
        result.peak_layer_width > options.max_layer_width) {
      throw ModelError("solve_min_makespan: layer width limit exceeded");
    }
  }
  result.min_makespan = best;
  return result;
}

}  // namespace mcp
