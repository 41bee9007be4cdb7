// Reference step loop, kept as the independent oracle for differential
// testing of the engine (core/batch_engine.hpp).
//
// This is a plain transliteration of the paper's Section 3 step rule that
// shares no code with the engine: the cache is an ordered map from page to
// cell, scanned in full to land fetches, eviction duplicates are checked
// with a set, and every strategy callback gets a fresh vector.  Strategies
// read it through the same CacheView interface the engine implements over
// its slot arrays; it updates the presence table CacheView::contains reads
// wherever its map lands or evicts a page, and its own hit test reads the
// map.  It fires every SimObserver callback at the points the engine does,
// so test_engine_differential.cpp can compare full event logs — not just
// the final RunStats — and catch a divergence at the event it happens.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/events.hpp"
#include "core/stats.hpp"
#include "core/strategy.hpp"
#include "core/stream.hpp"

namespace mcp::testing {

/// Map-based cache bookkeeping: one entry per occupied cell.
class ShadowCacheState final : public CacheView {
 public:
  explicit ShadowCacheState(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool is_present(PageId page) const {
    const auto it = cells_.find(page);
    return it != cells_.end() && !it->second.fetching;
  }
  [[nodiscard]] std::size_t occupied() const override { return cells_.size(); }
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }
  [[nodiscard]] std::vector<PageId> present_pages() const override {
    std::vector<PageId> pages;
    for (const auto& [page, cell] : cells_) {
      if (!cell.fetching) pages.push_back(page);
    }
    return pages;  // std::map iterates in ascending page id
  }

  [[nodiscard]] bool is_fetching(PageId page) const {
    const auto it = cells_.find(page);
    return it != cells_.end() && it->second.fetching;
  }
  [[nodiscard]] Time ready_at(PageId page) const {
    return cells_.at(page).ready_at;
  }
  [[nodiscard]] std::size_t fetching_count() const {
    return static_cast<std::size_t>(
        std::count_if(cells_.begin(), cells_.end(),
                      [](const auto& entry) { return entry.second.fetching; }));
  }

  void begin_fetch(PageId page, CoreId core, Time ready_at) {
    MCP_REQUIRE(cells_.size() < capacity_, "shadow: begin_fetch on full cache");
    const bool inserted =
        cells_.try_emplace(page, Cell{true, ready_at, core}).second;
    MCP_REQUIRE(inserted, "shadow: begin_fetch on resident page");
    if (page >= presence_.size()) {
      presence_.resize(std::size_t{page} + 1, 0);
      set_presence(presence_);
    }
  }

  /// Lands every fetch due by `now`: (page, fetching core), ascending page.
  [[nodiscard]] std::vector<std::pair<PageId, CoreId>> complete_fetches(
      Time now) {
    std::vector<std::pair<PageId, CoreId>> done;
    for (auto& [page, cell] : cells_) {
      if (cell.fetching && cell.ready_at <= now) {
        cell.fetching = false;
        presence_[page] = 1;
        done.emplace_back(page, cell.fetched_by);
      }
    }
    return done;
  }

  void evict(PageId page) {
    const auto it = cells_.find(page);
    MCP_REQUIRE(it != cells_.end(), "shadow: evict of non-resident page");
    MCP_REQUIRE(!it->second.fetching, "shadow: evict of reserved cell");
    cells_.erase(it);
    presence_[page] = 0;
  }

 private:
  struct Cell {
    bool fetching = false;
    Time ready_at = 0;
    CoreId fetched_by = kInvalidCore;
  };

  std::size_t capacity_;
  std::map<PageId, Cell> cells_;
  std::vector<std::uint8_t> presence_;  ///< For CacheView::contains.
};

namespace detail {

struct RefCoreRuntime {
  bool done = false;
  bool has_pending = false;
  PageId pending = kInvalidPage;
  Time ready_at = 0;
  Time last_finish = 0;
  std::size_t issued = 0;
};

}  // namespace detail

/// Runs `requests` through the reference step loop, firing `observers` in
/// order.  Same observable semantics as Simulator::run: RunStats field for
/// field (including sim_steps) and the SimObserver event sequence.
inline RunStats reference_simulate(
    const SimConfig& config, const RequestSet& requests,
    CacheStrategy& strategy, std::span<SimObserver* const> observers = {}) {
  using detail::RefCoreRuntime;
  MCP_REQUIRE(config.cache_size > 0, "SimConfig.cache_size must be positive");
  FixedStream stream(requests);
  const std::size_t p = stream.num_cores();
  MCP_REQUIRE(p > 0, "request stream has no cores");

  strategy.attach(config, p, &requests);

  ShadowCacheState cache(config.cache_size);
  RunStats stats(p);
  std::vector<RefCoreRuntime> cores(p);
  std::size_t active = p;
  Time now = 0;
  Time steps = 0;
  Time stalled_steps = 0;
  constexpr Time kMaxStalledSteps = 1 << 20;

  const auto notify = [&](auto&& fn) {
    for (SimObserver* obs : observers) fn(*obs);
  };
  const auto apply_evictions = [&](const std::vector<PageId>& victims,
                                   PageId incoming, CoreId cause_core,
                                   EvictionCause cause) {
    std::set<PageId> seen;
    for (PageId victim : victims) {
      MCP_REQUIRE(victim != incoming, "strategy evicted the incoming page");
      MCP_REQUIRE(seen.insert(victim).second, "strategy evicted a page twice");
      cache.evict(victim);
      notify([&](SimObserver& obs) {
        obs.on_evict(victim, cause_core, now, cause);
      });
    }
  };

  const auto serve = [&](CoreId core, PageId page, RefCoreRuntime& rt) {
    const AccessContext ctx{core, page, now, rt.issued};
    CoreStats& cstats = stats.core(core);

    if (cache.is_present(page)) {
      ++cstats.hits;
      ++cstats.requests;
      strategy.on_hit(ctx);
      notify([&](SimObserver& obs) { obs.on_hit(ctx); });
      rt.ready_at = now + 1;
      rt.last_finish = now;
      ++rt.issued;
      rt.has_pending = false;
      return;
    }

    if (cache.is_fetching(page)) {
      if (config.shared_fetch == SharedFetchMode::kJoinsFetch) {
        rt.ready_at = std::max(cache.ready_at(page), now + 1);
        rt.has_pending = true;
        rt.pending = page;
        return;
      }
      ++cstats.faults;
      ++cstats.requests;
      if (config.record_fault_timeline) cstats.fault_times.push_back(now);
      notify([&](SimObserver& obs) { obs.on_fault(ctx); });
      std::vector<PageId> victims;
      strategy.on_fault(ctx, cache, /*needs_cell=*/false, victims);
      MCP_REQUIRE(victims.empty(),
                  "on_fault(needs_cell=false) must not request evictions");
      rt.ready_at = now + config.fault_penalty + 1;
      rt.last_finish = now + config.fault_penalty;
      ++rt.issued;
      rt.has_pending = false;
      return;
    }

    ++cstats.faults;
    ++cstats.requests;
    if (config.record_fault_timeline) cstats.fault_times.push_back(now);
    notify([&](SimObserver& obs) { obs.on_fault(ctx); });
    std::vector<PageId> victims;
    strategy.on_fault(ctx, cache, /*needs_cell=*/true, victims);
    apply_evictions(victims, page, core, EvictionCause::kFault);
    MCP_REQUIRE(cache.occupied() < cache.capacity(),
                "strategy left no free cell for a faulting request");
    cache.begin_fetch(page, core, now + config.fault_penalty + 1);
    rt.ready_at = now + config.fault_penalty + 1;
    rt.last_finish = now + config.fault_penalty;
    ++rt.issued;
    rt.has_pending = false;
  };

  while (active > 0) {
    ++steps;
    if (config.max_steps != 0 && steps > config.max_steps) {
      throw ModelError("simulation exceeded SimConfig.max_steps");
    }
    notify([&](SimObserver& obs) { obs.on_step_begin(now); });

    // 1. Land fetches, ascending page id, once the whole batch is present.
    for (const auto& [page, by] : cache.complete_fetches(now)) {
      strategy.on_fetch_complete(page, by, now);
      notify([&](SimObserver& obs) { obs.on_fetch_complete(page, by, now); });
    }

    // 2. Voluntary evictions.
    std::vector<PageId> voluntary;
    strategy.on_step_begin(now, cache, voluntary);
    apply_evictions(voluntary, kInvalidPage, kInvalidCore,
                    EvictionCause::kVoluntary);

    // 3. Serve ready cores in logical order.
    bool any_deferred = false;
    bool any_served = false;
    for (CoreId core = 0; core < p; ++core) {
      RefCoreRuntime& rt = cores[core];
      if (rt.done || rt.ready_at > now) continue;
      if (!rt.has_pending) {
        const std::optional<PageId> next = stream.next(core);
        if (!next.has_value()) {
          rt.done = true;
          stats.core(core).completion_time = rt.last_finish;
          strategy.on_core_done(core, now);
          notify([&](SimObserver& obs) {
            obs.on_core_done(core, rt.last_finish);
          });
          --active;
          continue;
        }
        rt.has_pending = true;
        rt.pending = *next;
      }
      const AccessContext ctx{core, rt.pending, now, rt.issued};
      if (strategy.defer_request(ctx, cache)) {
        any_deferred = true;
        continue;
      }
      any_served = true;
      serve(core, rt.pending, rt);
    }

    notify([&](SimObserver& obs) { obs.on_step_end(now); });

    if (active == 0) {
      stats.end_time = now;
      break;
    }

    if (any_deferred && !any_served && cache.fetching_count() == 0) {
      if (++stalled_steps > kMaxStalledSteps) {
        throw ModelError("strategy deferred every serviceable request with "
                         "nothing in flight for too long (livelock)");
      }
    } else {
      stalled_steps = 0;
    }

    Time next_time = kTimeNever;
    for (const RefCoreRuntime& rt : cores) {
      if (!rt.done) next_time = std::min(next_time, rt.ready_at);
    }
    MCP_ASSERT(next_time != kTimeNever);
    now = any_deferred ? now + 1 : std::max(now + 1, next_time);
  }

  stats.sim_steps = steps;
  return stats;
}

}  // namespace mcp::testing
