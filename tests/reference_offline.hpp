// Reference build of the offline searches, kept for differential testing.
//
// This is the heap-backed implementation the packed engine
// (offline/packed_space.hpp, offline/packed_state.hpp) replaced: a state is
// three vectors, one timestep's working set lives in unordered_sets, the
// expansion emits through a std::function, and the searches key their nodes
// in unordered containers.  It is deliberately naive — the point is that
// test_offline_differential.cpp can run the same instance through these
// oracles and through solve_ftf / solve_pif / solve_min_makespan and require
// the same optimum, verdict and search counters.  This expansion emits every
// branch of the step, repeats included (several victim orders can reach the
// same successor); PackedTransitionSystem::expand must emit a subsequence of
// it that keeps the first occurrence of every (successor, faulted cores).
//
// Contents: the transition system (OfflineState, StepOutcome,
// TransitionSystem), pack()/unpack() between it and the packed layout,
// binary-heap Dijkstra for FTF, the serial layered PIF DP with linear-scan
// Pareto fronts, and the unordered_set makespan BFS.  The searches accept
// the production option structs and honour their search-shaping fields
// (victim_rule, build_schedule, max_states, max_layer_width); the packed
// engine's storage, checkpoint and sentry knobs are ignored.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/instance.hpp"
#include "offline/makespan_solver.hpp"
#include "offline/packed_space.hpp"
#include "offline/pif_solver.hpp"

namespace mcp::testing {

// ---------------------------------------------------------------------------
// Transition system.
//
// A state captures the system between timesteps: the cache contents
// (including in-flight pages), each core's next request index, and how many
// more steps each core stays blocked by its current fetch.  One expansion =
// one timestep: cores are processed in logical order (lower id first, as in
// the online model — an eviction by core 0 is visible to core 2 within the
// same step), and every fault branches over the admissible victims.
// ---------------------------------------------------------------------------

struct OfflineState {
  std::vector<PageId> cache;        ///< sorted resident pages (present + in flight)
  std::vector<std::uint32_t> pos;   ///< next request index per core
  std::vector<std::uint32_t> fetch; ///< remaining blocked steps per core

  bool operator==(const OfflineState&) const = default;
};

namespace offline_oracle {

constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

inline std::size_t hash_mix(std::size_t seed, std::size_t value) noexcept {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace offline_oracle

struct OfflineStateHash {
  std::size_t operator()(const OfflineState& s) const noexcept {
    using offline_oracle::hash_mix;
    std::size_t h = 0x12345678;
    for (PageId page : s.cache) h = hash_mix(h, page);
    h = hash_mix(h, 0xABCD);
    for (std::uint32_t v : s.pos) h = hash_mix(h, v);
    for (std::uint32_t v : s.fetch) h = hash_mix(h, v);
    return h;
  }
};

/// Everything one timestep did, for one branch of victim choices.
struct StepOutcome {
  OfflineState next;
  std::uint32_t faulted_cores = 0;   ///< bitmask of cores that faulted
  std::vector<PageId> evictions;     ///< victims, in faulting-core order
                                     ///< (kInvalidPage for no-eviction faults)
  [[nodiscard]] Count fault_count() const noexcept {
    return static_cast<Count>(std::popcount(faulted_cores));
  }
};

class TransitionSystem {
 public:
  TransitionSystem(const OfflineInstance& instance, VictimRule rule)
      : instance_(&instance), rule_(rule), p_(instance.requests.num_cores()) {
    instance.validate();
    universe_size_ = instance.requests.page_bound();
    owner_ = instance.requests.owner_map(universe_size_);
    occurrences_.resize(universe_size_);
    for (CoreId core = 0; core < p_; ++core) {
      const RequestSequence& seq = instance.requests.sequence(core);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        occurrences_[seq[i]].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  [[nodiscard]] OfflineState initial() const {
    OfflineState state;
    state.pos.assign(p_, 0);
    state.fetch.assign(p_, 0);
    return state;
  }

  /// All requests served (in-flight tails don't matter for fault counts).
  [[nodiscard]] bool is_terminal(const OfflineState& state) const {
    for (CoreId j = 0; j < p_; ++j) {
      if (state.pos[j] < instance_->requests.sequence(j).size()) return false;
    }
    return true;
  }

  /// Invokes `emit` once per admissible outcome of the next timestep.
  void expand(const OfflineState& state,
              const std::function<void(StepOutcome&&)>& emit) const {
    StepScratch scratch;
    scratch.cache.insert(state.cache.begin(), state.cache.end());
    scratch.pos = state.pos;
    scratch.fetch = state.fetch;
    // Pages still in flight at the start of the step are locked: not
    // hit-able, not evictable (the paper's reserved-cell convention).
    for (CoreId j = 0; j < p_; ++j) {
      if (state.fetch[j] > 0) {
        MCP_ASSERT(state.pos[j] > 0);
        scratch.locked.insert(
            instance_->requests.sequence(j)[state.pos[j] - 1]);
      }
    }
    expand_core(0, scratch, emit);
  }

  [[nodiscard]] std::size_t num_cores() const noexcept { return p_; }
  [[nodiscard]] const OfflineInstance& instance() const noexcept {
    return *instance_;
  }

  /// Next request index >= `from` of `page` within its owner's sequence;
  /// UINT32_MAX if never again.
  [[nodiscard]] std::uint32_t next_occurrence(PageId page,
                                              std::uint32_t from) const {
    MCP_REQUIRE(page < universe_size_, "next_occurrence: unknown page");
    const auto& occ = occurrences_[page];
    const auto it = std::lower_bound(occ.begin(), occ.end(), from);
    return it == occ.end() ? offline_oracle::kNever : *it;
  }

  [[nodiscard]] CoreId owner_of(PageId page) const {
    MCP_REQUIRE(page < universe_size_, "owner_of: unknown page");
    return owner_[page];
  }

 private:
  // Mutable working set threaded through the per-core recursion of one step.
  struct StepScratch {
    std::unordered_set<PageId> cache;   // current cache contents
    std::unordered_set<PageId> locked;  // in-flight (start of step + new faults)
    std::vector<std::uint32_t> pos;
    std::vector<std::uint32_t> fetch;
    std::uint32_t faulted = 0;
    std::vector<PageId> evictions;
  };

  [[nodiscard]] std::vector<PageId> victim_candidates(
      const StepScratch& scratch) const {
    std::vector<PageId> evictable;
    evictable.reserve(scratch.cache.size());
    for (PageId page : scratch.cache) {
      if (!scratch.locked.contains(page)) evictable.push_back(page);
    }
    std::sort(evictable.begin(), evictable.end());
    if (rule_ == VictimRule::kAllPages || evictable.empty()) return evictable;

    // Theorem 5: for each core c, only the evictable page of R_c whose next
    // request in R_c is furthest (never-again counts as infinitely far).
    std::vector<PageId> best_per_core(p_, kInvalidPage);
    std::vector<std::uint64_t> best_dist(p_, 0);
    for (PageId page : evictable) {
      const CoreId c = owner_[page];
      const std::uint32_t next = next_occurrence(page, scratch.pos[c]);
      const std::uint64_t dist = next == offline_oracle::kNever
                                     ? std::numeric_limits<std::uint64_t>::max()
                                     : next;
      if (best_per_core[c] == kInvalidPage || dist > best_dist[c]) {
        best_per_core[c] = page;
        best_dist[c] = dist;
      }
    }
    std::vector<PageId> candidates;
    for (CoreId c = 0; c < p_; ++c) {
      if (best_per_core[c] != kInvalidPage) {
        candidates.push_back(best_per_core[c]);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    return candidates;
  }

  void emit_outcome(StepScratch& scratch,
                    const std::function<void(StepOutcome&&)>& emit) const {
    StepOutcome outcome;
    outcome.next.cache.assign(scratch.cache.begin(), scratch.cache.end());
    std::sort(outcome.next.cache.begin(), outcome.next.cache.end());
    outcome.next.pos = scratch.pos;
    outcome.next.fetch = scratch.fetch;
    outcome.faulted_cores = scratch.faulted;
    outcome.evictions = scratch.evictions;
    emit(std::move(outcome));
  }

  void expand_core(std::size_t core, StepScratch& scratch,
                   const std::function<void(StepOutcome&&)>& emit) const {
    if (core == p_) {
      emit_outcome(scratch, emit);
      return;
    }
    const CoreId j = static_cast<CoreId>(core);
    if (scratch.fetch[j] > 0) {  // blocked: the fetch ticks down
      --scratch.fetch[j];
      expand_core(core + 1, scratch, emit);
      ++scratch.fetch[j];
      return;
    }
    const RequestSequence& seq = instance_->requests.sequence(j);
    if (scratch.pos[j] >= seq.size()) {  // finished
      expand_core(core + 1, scratch, emit);
      return;
    }
    const PageId page = seq[scratch.pos[j]];
    if (scratch.cache.contains(page) && !scratch.locked.contains(page)) {
      // Hit: consumes this step only.
      ++scratch.pos[j];
      expand_core(core + 1, scratch, emit);
      --scratch.pos[j];
      return;
    }
    MCP_ASSERT_MSG(!scratch.locked.contains(page),
                   "disjoint input requested an in-flight page");
    // Fault.
    ++scratch.pos[j];
    scratch.fetch[j] = static_cast<std::uint32_t>(instance_->tau);
    scratch.faulted |= 1u << j;
    if (scratch.cache.size() < instance_->cache_size) {
      // Honest: no eviction while a cell is free.
      scratch.cache.insert(page);
      scratch.locked.insert(page);
      scratch.evictions.push_back(kInvalidPage);
      expand_core(core + 1, scratch, emit);
      scratch.evictions.pop_back();
      scratch.locked.erase(page);
      scratch.cache.erase(page);
    } else {
      for (PageId victim : victim_candidates(scratch)) {
        scratch.cache.erase(victim);
        scratch.cache.insert(page);
        scratch.locked.insert(page);
        scratch.evictions.push_back(victim);
        expand_core(core + 1, scratch, emit);
        scratch.evictions.pop_back();
        scratch.locked.erase(page);
        scratch.cache.erase(page);
        scratch.cache.insert(victim);
      }
    }
    scratch.faulted &= ~(1u << j);
    scratch.fetch[j] = 0;
    --scratch.pos[j];
  }

  const OfflineInstance* instance_;
  VictimRule rule_;
  std::size_t p_;
  PageId universe_size_ = 0;
  std::vector<CoreId> owner_;                            // page -> core
  std::vector<std::vector<std::uint32_t>> occurrences_;  // page -> indices
};

// ---------------------------------------------------------------------------
// Conversions to and from the packed layout (packed_space.hpp): the cache
// bitset in the first words, then one (pos << 8) | fetch lane per core, two
// lanes per word.  pack() requires the state to fit the encoding.
// ---------------------------------------------------------------------------

inline std::size_t packed_cache_words(const PackedTransitionSystem& system) {
  return system.state_words() - (system.num_cores() + 1) / 2;
}

inline void pack(const PackedTransitionSystem& system,
                 const OfflineState& state, std::uint64_t* out) {
  const std::size_t p = system.num_cores();
  const std::size_t cache_words = packed_cache_words(system);
  std::fill(out, out + system.state_words(), 0);
  for (PageId page : state.cache) {
    MCP_REQUIRE(page < system.instance().requests.page_bound(),
                "pack: page outside the universe");
    mcp::detail::set_bit(out, page);
  }
  MCP_REQUIRE(state.pos.size() == p && state.fetch.size() == p,
              "pack: core-vector sizes mismatch the instance");
  for (CoreId j = 0; j < p; ++j) {
    MCP_REQUIRE(state.pos[j] <= PackedTransitionSystem::kMaxPosition &&
                    state.fetch[j] <= 0xFFu,
                "pack: position/fetch out of encoding range");
    const std::uint64_t lane = (state.pos[j] << 8) | state.fetch[j];
    out[cache_words + (j >> 1)] |= lane << ((j & 1u) * 32);
  }
}

[[nodiscard]] inline OfflineState unpack(const PackedTransitionSystem& system,
                                         const std::uint64_t* state) {
  OfflineState out;
  for (std::size_t w = 0; w < packed_cache_words(system); ++w) {
    std::uint64_t bits = state[w];
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      out.cache.push_back(static_cast<PageId>(w * 64 + b));
    }
  }
  out.pos.resize(system.num_cores());
  out.fetch.resize(system.num_cores());
  for (CoreId j = 0; j < system.num_cores(); ++j) {
    out.pos[j] = system.position(state, j);
    out.fetch[j] = system.fetch_left(state, j);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FTF: binary-heap Dijkstra over heap-backed OfflineState nodes keyed in an
// unordered_map.
// ---------------------------------------------------------------------------

namespace offline_oracle {

[[noreturn]] inline void throw_state_limit(std::size_t expanded,
                                           std::size_t stored) {
  throw ModelError("solve_ftf: state limit exceeded (states_expanded=" +
                   std::to_string(expanded) +
                   ", states_stored=" + std::to_string(stored) + ")");
}

struct NodeInfo {
  Count dist = 0;
  // Parent pointer for schedule reconstruction (only when requested).
  const OfflineState* parent = nullptr;
  std::vector<PageId> step_evictions;
};

struct QueueEntry {
  Count dist;
  const OfflineState* state;
  bool operator>(const QueueEntry& other) const { return dist > other.dist; }
};

}  // namespace offline_oracle

inline FtfResult solve_ftf_reference(const OfflineInstance& instance,
                                     const FtfOptions& options = {}) {
  using offline_oracle::NodeInfo;
  using offline_oracle::QueueEntry;
  const TransitionSystem system(instance, options.victim_rule);

  // Node ownership: the map's keys are the canonical state objects; queue
  // entries and parent pointers reference them (stable across rehashing —
  // unordered_map never moves its nodes).
  std::unordered_map<OfflineState, NodeInfo, OfflineStateHash> nodes;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;

  const OfflineState start = system.initial();
  nodes.emplace(start, NodeInfo{});
  queue.push(QueueEntry{0, &nodes.find(start)->first});

  FtfResult result;
  const OfflineState* goal = nullptr;

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    const auto it = nodes.find(*top.state);
    MCP_ASSERT(it != nodes.end());
    if (top.dist > it->second.dist) continue;  // stale entry
    if (system.is_terminal(*top.state)) {
      goal = top.state;
      result.min_faults = top.dist;
      break;
    }
    if (options.max_states != 0 && nodes.size() > options.max_states) {
      offline_oracle::throw_state_limit(result.states_expanded, nodes.size());
    }
    ++result.states_expanded;

    system.expand(*top.state, [&](StepOutcome&& outcome) {
      const Count dist = top.dist + outcome.fault_count();
      auto [node_it, inserted] = nodes.try_emplace(std::move(outcome.next));
      if (!inserted && node_it->second.dist <= dist) return;
      node_it->second.dist = dist;
      if (options.build_schedule) {
        node_it->second.parent = top.state;
        node_it->second.step_evictions = std::move(outcome.evictions);
      }
      queue.push(QueueEntry{dist, &node_it->first});
    });
  }

  MCP_REQUIRE(goal != nullptr, "solve_ftf: no terminal state reachable");
  result.states_stored = nodes.size();

  if (options.build_schedule) {
    // Walk parents back to the start, collecting per-step eviction lists;
    // flatten in forward order.  Entries are per *fault*; steps without
    // faults contributed empty lists.
    std::vector<const std::vector<PageId>*> steps;
    for (const OfflineState* cur = goal; cur != nullptr;) {
      const NodeInfo& info = nodes.find(*cur)->second;
      if (info.parent == nullptr) break;
      steps.push_back(&info.step_evictions);
      cur = info.parent;
    }
    std::reverse(steps.begin(), steps.end());
    for (const auto* step : steps) {
      result.schedule.insert(result.schedule.end(), step->begin(), step->end());
    }
    MCP_ASSERT(result.schedule.size() == result.min_faults);
  }
  return result;
}

// ---------------------------------------------------------------------------
// PIF: serial layered BFS over heap-backed OfflineState nodes with
// linear-scan Pareto fronts.
// ---------------------------------------------------------------------------

namespace offline_oracle {

using FaultVec = std::vector<std::uint32_t>;

/// true iff a[i] <= b[i] for all i.
inline bool dominates(const FaultVec& a, const FaultVec& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

/// One Pareto-frontier member of a state, with its provenance (provenance
/// fields stay empty unless a witness schedule was requested).
struct VecEntry {
  FaultVec faults;
  const OfflineState* parent_state = nullptr;
  std::uint32_t parent_vec = 0;
  std::vector<PageId> evictions;
};

/// Inserts `entry` unless dominated; removes entries it dominates.
inline bool pareto_insert(std::vector<VecEntry>& front, VecEntry&& entry) {
  for (const VecEntry& existing : front) {
    if (dominates(existing.faults, entry.faults)) return false;
  }
  std::erase_if(front, [&entry](const VecEntry& existing) {
    return dominates(entry.faults, existing.faults);
  });
  front.push_back(std::move(entry));
  return true;
}

using PifLayer =
    std::unordered_map<OfflineState, std::vector<VecEntry>, OfflineStateHash>;

inline std::size_t layer_width(const PifLayer& layer) {
  std::size_t width = 0;
  for (const auto& [state, entries] : layer) width += entries.size();
  return width;
}

/// Walks provenance back to layer 0 and flattens the per-step eviction
/// lists into the global fault-order schedule.
inline std::vector<PageId> reconstruct(const std::deque<PifLayer>& history,
                                       std::size_t layer_index,
                                       const OfflineState* state,
                                       std::uint32_t vec_index) {
  std::vector<const std::vector<PageId>*> steps;
  while (layer_index > 0) {
    const auto it = history[layer_index].find(*state);
    MCP_ASSERT(it != history[layer_index].end());
    const VecEntry& entry = it->second[vec_index];
    steps.push_back(&entry.evictions);
    state = entry.parent_state;
    vec_index = entry.parent_vec;
    --layer_index;
  }
  std::reverse(steps.begin(), steps.end());
  std::vector<PageId> schedule;
  for (const auto* step : steps) {
    schedule.insert(schedule.end(), step->begin(), step->end());
  }
  return schedule;
}

}  // namespace offline_oracle

inline PifResult solve_pif_reference(const PifInstance& instance,
                                     const PifOptions& options = {}) {
  using offline_oracle::PifLayer;
  using offline_oracle::VecEntry;
  instance.validate();
  const TransitionSystem system(instance.base, options.victim_rule);
  const std::size_t p = system.num_cores();

  PifResult result;
  // history[t] = layer at the start of step t.  Without schedule building we
  // only ever keep the last two layers alive (the deque is pruned).
  std::deque<PifLayer> history;
  history.emplace_back();
  {
    VecEntry start;
    start.faults.assign(p, 0);
    history.back()[system.initial()].push_back(std::move(start));
  }

  for (Time t = 0; t < instance.deadline; ++t) {
    const PifLayer& layer = history.back();
    // Early success: a finished state's fault vector is frozen, and every
    // vector still alive satisfies the bounds by construction.
    for (const auto& [state, entries] : layer) {
      if (system.is_terminal(state) && !entries.empty()) {
        result.feasible = true;
        result.decided_at = t;
        if (options.build_schedule) {
          result.schedule = offline_oracle::reconstruct(
              history, history.size() - 1, &state, 0);
        }
        return result;
      }
    }

    PifLayer next;
    for (const auto& [state, entries] : layer) {
      ++result.states_expanded;
      const OfflineState* state_ptr = &state;
      system.expand(state, [&](StepOutcome&& outcome) {
        for (std::uint32_t v = 0; v < entries.size(); ++v) {
          VecEntry advanced;
          advanced.faults = entries[v].faults;
          bool alive = true;
          for (std::size_t j = 0; j < p; ++j) {
            if ((outcome.faulted_cores >> j) & 1u) {
              if (++advanced.faults[j] > instance.bounds[j]) {
                alive = false;
                break;
              }
            }
          }
          if (!alive) continue;
          if (options.build_schedule) {
            advanced.parent_state = state_ptr;
            advanced.parent_vec = v;
            advanced.evictions = outcome.evictions;
          }
          offline_oracle::pareto_insert(next[outcome.next],
                                        std::move(advanced));
        }
      });
    }
    history.push_back(std::move(next));
    if (!options.build_schedule && history.size() > 2) history.pop_front();

    result.peak_layer_width = std::max(
        result.peak_layer_width, offline_oracle::layer_width(history.back()));
    if (options.max_layer_width != 0 &&
        result.peak_layer_width > options.max_layer_width) {
      throw ModelError("solve_pif: layer width limit exceeded");
    }
    if (history.back().empty()) {  // every branch blew a bound
      result.feasible = false;
      result.decided_at = t + 1;
      return result;
    }
  }

  result.feasible = !history.back().empty();
  result.decided_at = instance.deadline;
  if (result.feasible && options.build_schedule) {
    const auto& final_layer = history.back();
    const auto it = final_layer.begin();
    result.schedule = offline_oracle::reconstruct(history, history.size() - 1,
                                                  &it->first, 0);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Makespan: breadth-first search over timesteps, one unordered_set of states
// per layer.  A terminal state reached at the start of step t finished its
// last service at t-1 plus any residual fetch; the search stops once no
// future layer can beat the incumbent.
// ---------------------------------------------------------------------------

namespace offline_oracle {

/// Completion time of a terminal state first reached at the start of step
/// `layer`: its last service step was layer-1, extended by any fetch still
/// in flight (fetch[j] = r means that fetch lands at layer-1+r).
inline Time terminal_makespan(const OfflineState& state, Time layer) {
  std::uint32_t residual = 0;
  for (std::uint32_t r : state.fetch) residual = std::max(residual, r);
  if (layer == 0) return residual;  // empty instance
  return layer - 1 + residual;
}

}  // namespace offline_oracle

inline MakespanResult solve_min_makespan_reference(
    const OfflineInstance& instance, const MakespanOptions& options = {}) {
  using offline_oracle::terminal_makespan;
  const TransitionSystem system(instance, options.victim_rule);

  using Layer = std::unordered_set<OfflineState, OfflineStateHash>;
  Layer layer;
  layer.insert(system.initial());

  MakespanResult result;
  Time best = kTimeNever;
  for (Time t = 0;; ++t) {
    // Harvest terminals; once layer start can no longer beat the incumbent,
    // stop.
    for (const OfflineState& state : layer) {
      if (system.is_terminal(state)) {
        best = std::min(best, terminal_makespan(state, t));
      }
    }
    if (best != kTimeNever && (t == 0 || t - 1 >= best)) break;

    Layer next;
    for (const OfflineState& state : layer) {
      if (system.is_terminal(state)) continue;  // done; nothing to expand
      ++result.states_expanded;
      system.expand(state, [&next](StepOutcome&& outcome) {
        next.insert(std::move(outcome.next));
      });
    }
    if (next.empty()) {
      // All states terminal: the harvest above already set `best`.
      MCP_REQUIRE(best != kTimeNever, "makespan search: dead end");
      break;
    }
    layer = std::move(next);
    result.peak_layer_width = std::max(result.peak_layer_width, layer.size());
    if (options.max_layer_width != 0 &&
        result.peak_layer_width > options.max_layer_width) {
      throw ModelError("solve_min_makespan: layer width limit exceeded");
    }
  }
  result.min_makespan = best;
  return result;
}

}  // namespace mcp::testing
