#include "core/simulator.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "core/cache_state.hpp"
#include "core/error.hpp"
#include "core/sentry.hpp"

namespace mcp {

namespace {

/// One run of the step loop: the state a Simulator::run_stream call owns
/// for its duration.
class Run {
 public:
  Run(const SimConfig& config, std::size_t num_cores, CacheStrategy& strategy,
      const RequestSet* offline_info, std::span<SimObserver* const> observers)
      : config_(config),
        strategy_(&strategy),
        observers_(observers),
        cache_(config.cache_size),
        stats_(num_cores),
        cores_(num_cores),
        active_(num_cores) {
    MCP_REQUIRE(num_cores > 0, "request stream has no cores");
    strategy_->attach(config_, num_cores, offline_info);
    if (offline_info != nullptr) {
      cache_.reserve_universe(offline_info->page_bound());
      if (config_.record_fault_timeline) {
        // Worst case every request faults; one reserve beats per-fault growth.
        for (CoreId j = 0; j < num_cores; ++j) {
          stats_.core(j).fault_times.reserve(offline_info->sequence(j).size());
        }
      }
    }
  }

  RunStats execute(RequestStream& stream);

 private:
  struct CoreRuntime {
    Time ready_at = 0;        ///< Earliest step the next request can issue.
    Time last_finish = 0;     ///< Service-completion time of the last request.
    std::size_t issued = 0;   ///< Requests issued so far (seq_index of next).
    bool has_pending = false; ///< A request was pulled but not yet served.
    PageId pending = kInvalidPage;
    bool done = false;
  };

  void serve_request(CoreId core, PageId page, Time now, CoreRuntime& runtime);
  void apply_evictions(const std::vector<PageId>& victims, PageId incoming,
                       CoreId cause_core, Time now, EvictionCause cause);

  template <typename Fn>
  void notify(Fn&& fn) {
    for (SimObserver* obs : observers_) fn(*obs);
  }

  const SimConfig& config_;
  CacheStrategy* strategy_;
  std::span<SimObserver* const> observers_;
  CacheState cache_;
  RunStats stats_;
  std::vector<CoreRuntime> cores_;
  std::size_t active_;
  // Reusable eviction scratch buffers (the allocation-free step-loop
  // contract): cleared before every strategy call, never reallocated after
  // the first few faults.
  std::vector<PageId> fault_evictions_;
  std::vector<PageId> voluntary_evictions_;
};

void Run::apply_evictions(const std::vector<PageId>& victims, PageId incoming,
                          CoreId cause_core, Time now, EvictionCause cause) {
  // Duplicate detection by linear scan over the already-validated prefix:
  // victims are almost always 0 or 1 pages, so this beats building a hash
  // set per fault.
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const PageId victim = victims[i];
    MCP_REQUIRE(victim != incoming, "strategy evicted the incoming page");
    const auto begin = victims.begin();
    MCP_REQUIRE(std::find(begin, begin + static_cast<std::ptrdiff_t>(i),
                          victim) == begin + static_cast<std::ptrdiff_t>(i),
                "strategy evicted a page twice");
    cache_.evict(victim);  // validates: present, not a reserved (fetching) cell
    if (!observers_.empty()) {
      notify([&](SimObserver& obs) { obs.on_evict(victim, cause_core, now, cause); });
    }
  }
}

void Run::serve_request(CoreId core, PageId page, Time now,
                        CoreRuntime& runtime) {
  const AccessContext ctx{core, page, now, runtime.issued};
  CoreStats& cstats = stats_.core(core);
  const bool observed = !observers_.empty();

  if (cache_.contains(page)) {  // hit: served within this step
    ++cstats.hits;
    ++cstats.requests;
    strategy_->on_hit(ctx);
    if (observed) notify([&](SimObserver& obs) { obs.on_hit(ctx); });
    runtime.ready_at = now + 1;
    runtime.last_finish = now;
    ++runtime.issued;
    runtime.has_pending = false;
    return;
  }

  if (cache_.is_fetching(page)) {
    // Another core's fetch for this page is in flight (only possible for
    // non-disjoint inputs).  Behaviour per SharedFetchMode; see types.hpp.
    if (config_.shared_fetch == SharedFetchMode::kJoinsFetch) {
      // Block until the in-flight fetch lands, then retry (it will be a hit
      // unless the strategy evicts it first, in which case it faults then).
      const CellInfo* info = cache_.find(page);
      MCP_ASSERT(info != nullptr);
      runtime.ready_at = std::max(info->ready_at, now + 1);
      runtime.has_pending = true;
      runtime.pending = page;
      return;
    }
    // kCountsAsFault: full fault accounting, but the page needs no new cell.
    ++cstats.faults;
    ++cstats.requests;
    if (config_.record_fault_timeline) cstats.fault_times.push_back(now);
    if (observed) notify([&](SimObserver& obs) { obs.on_fault(ctx); });
    fault_evictions_.clear();
    strategy_->on_fault(ctx, cache_, /*needs_cell=*/false, fault_evictions_);
    MCP_REQUIRE(fault_evictions_.empty(),
                "on_fault(needs_cell=false) must not request evictions");
    runtime.ready_at = now + config_.fault_penalty + 1;
    runtime.last_finish = now + config_.fault_penalty;
    ++runtime.issued;
    runtime.has_pending = false;
    return;
  }

  // Plain fault: charge it, let the strategy pick victims, reserve a cell.
  ++cstats.faults;
  ++cstats.requests;
  if (config_.record_fault_timeline) cstats.fault_times.push_back(now);
  if (observed) notify([&](SimObserver& obs) { obs.on_fault(ctx); });
  fault_evictions_.clear();
  strategy_->on_fault(ctx, cache_, /*needs_cell=*/true, fault_evictions_);
  apply_evictions(fault_evictions_, page, core, now, EvictionCause::kFault);
  MCP_REQUIRE(cache_.free_cells() >= 1,
              "strategy left no free cell for a faulting request");
  cache_.begin_fetch(page, core, now + config_.fault_penalty + 1);
  runtime.ready_at = now + config_.fault_penalty + 1;
  runtime.last_finish = now + config_.fault_penalty;
  ++runtime.issued;
  runtime.has_pending = false;
}

RunStats Run::execute(RequestStream& stream) {
  const std::size_t p = cores_.size();
  const bool observed = !observers_.empty();
  constexpr Time kMaxStalledSteps = 1 << 20;
  Time now = 0;
  Time steps = 0;
  Time stalled_steps = 0;

  while (active_ > 0) {
    ++steps;
    stats_.sim_steps = steps;
    if (config_.max_steps != 0 && steps > config_.max_steps) {
      throw ModelError("simulation exceeded SimConfig.max_steps");
    }

    // Allocation sentry: past warm-up, the whole step — engine bookkeeping
    // and strategy callbacks alike — must not touch the heap (§8 claim).
    std::optional<AllocGuard> step_guard;
    if (config_.alloc_guard_after_step != 0 &&
        steps > config_.alloc_guard_after_step) {
      step_guard.emplace("simulator step loop");
    }

    if (observed) notify([&](SimObserver& obs) { obs.on_step_begin(now); });

    // 1. Land fetches due now, before any request is served this step.
    for (PageId page : cache_.complete_fetches(now)) {
      const CellInfo* info = cache_.find(page);
      const CoreId by = info != nullptr ? info->fetched_by : kInvalidCore;
      strategy_->on_fetch_complete(page, by, now);
      if (observed) {
        notify([&](SimObserver& obs) { obs.on_fetch_complete(page, by, now); });
      }
    }

    // 2. Voluntary evictions (dynamic-partition shrinks, dishonest moves).
    voluntary_evictions_.clear();
    strategy_->on_step_begin(now, cache_, voluntary_evictions_);
    apply_evictions(voluntary_evictions_, kInvalidPage, kInvalidCore, now,
                    EvictionCause::kVoluntary);

    // 3. Serve ready cores in logical (increasing id) order.
    bool any_deferred = false;
    bool any_served = false;
    for (CoreId core = 0; core < p; ++core) {
      CoreRuntime& rt = cores_[core];
      if (rt.done || rt.ready_at > now) continue;
      if (!rt.has_pending) {
        const std::optional<PageId> next = stream.next(core);
        if (!next.has_value()) {
          rt.done = true;
          stats_.core(core).completion_time = rt.last_finish;
          strategy_->on_core_done(core, now);
          if (observed) {
            notify([&](SimObserver& obs) { obs.on_core_done(core, rt.last_finish); });
          }
          --active_;
          continue;
        }
        rt.has_pending = true;
        rt.pending = *next;
      }
      const AccessContext ctx{core, rt.pending, now, rt.issued};
      if (strategy_->defer_request(ctx, cache_)) {
        any_deferred = true;  // postponed; the core stays ready next step
        continue;
      }
      any_served = true;
      serve_request(core, rt.pending, now, rt);
    }

    if (observed) notify([&](SimObserver& obs) { obs.on_step_end(now); });

    // Checked builds revalidate the cache's deep structural invariants at
    // every step boundary (validators carry their own AllocAllow).
    MCP_CHECKED_ONLY(cache_.validate());

    if (active_ == 0) {
      stats_.end_time = now;
      break;
    }

    // Deferrals with nothing in flight and nothing served make no progress.
    // Tolerate bounded idle waiting (a strategy may stall until a target
    // time), but call a persistent stall what it is: livelock.
    if (any_deferred && !any_served && cache_.fetching_count() == 0) {
      if (++stalled_steps > kMaxStalledSteps) {
        throw ModelError("strategy deferred every serviceable request with "
                         "nothing in flight for too long (livelock)");
      }
    } else {
      stalled_steps = 0;
    }

    // 4. Advance time; fast-forward over steps where no core can act —
    //    impossible while a deferral keeps a core ready at `now`.
    Time next_time = kTimeNever;
    for (const CoreRuntime& rt : cores_) {
      if (!rt.done) next_time = std::min(next_time, rt.ready_at);
    }
    MCP_ASSERT(next_time != kTimeNever);
    now = any_deferred ? now + 1 : std::max(now + 1, next_time);
  }
  return std::move(stats_);
}

}  // namespace

Simulator::Simulator(SimConfig config) : config_(config) {
  MCP_REQUIRE(config_.cache_size > 0, "SimConfig.cache_size must be positive");
}

void Simulator::add_observer(SimObserver* observer) {
  MCP_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

RunStats Simulator::run(const RequestSet& requests, CacheStrategy& strategy) {
  FixedStream stream(requests);
  return run_stream(stream, strategy, &requests);
}

RunStats Simulator::run_stream(RequestStream& stream, CacheStrategy& strategy,
                               const RequestSet* offline_info) {
  active_observers_.clear();
  if (SimObserver* obs = stream.observer(); obs != nullptr) {
    active_observers_.push_back(obs);
  }
  active_observers_.insert(active_observers_.end(), observers_.begin(),
                           observers_.end());

  Run run(config_, stream.num_cores(), strategy, offline_info,
          active_observers_);
  RunStats stats = run.execute(stream);
  active_observers_.clear();
  return stats;
}

RunStats simulate(const SimConfig& config, const RequestSet& requests,
                  CacheStrategy& strategy) {
  Simulator sim(config);
  return sim.run(requests, strategy);
}

}  // namespace mcp
