// Implementation of the step loop and SweepRunner::run_jobs.
//
// One step loop, BatchEngine::step_loop, has thirteen instantiations
// (batch_engine.hpp): the shared and static-partition stamp kernels, each
// specialized at compile time for one of six eviction policies, and the
// hook instantiation, which takes its decisions from a CacheStrategy
// object.  Hook-only state and work sit behind `if constexpr (kHooks)`, and
// each policy's behind `if constexpr` on kPolicy, so a kernel carries none
// of the others'.  Bit-equality between a stamp kernel and the hook
// instantiation driving the equivalent strategy object is argued in
// DESIGN.md §12; the load-bearing piece is that each region's list and
// policy arrays are the policy's own state: under LRU and FIFO a slot joins
// the newest end when its fetch starts, LRU moves it there again on a hit,
// FIFO never does, so "first evictable page scanning the policy list from
// the back" is exactly "first present slot walking the region's list from
// its oldest end"; MARK and LRU-SCAN keep their lists sorted by their
// victim keys, CLOCK keeps its ring on the list, and LFU scans its region's
// slots; each is argued at its code.
#include "core/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <source_location>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/sentry.hpp"
#include "core/sweep.hpp"

namespace mcp {

namespace {

/// The hook instantiation's pull cursor bound: a stream core's core_len,
/// so core_next counts the requests pulled from the stream.  Also the
/// longest sequence a core reads in place (core_len is 32 bits).
constexpr std::uint32_t kStreamCursorEnd =
    std::numeric_limits<std::uint32_t>::max();
constexpr const char* kCoreTooLong =
    "more than 2^32 - 1 requests on one core";

/// Deferral-only steps with nothing in flight that the hook instantiation
/// tolerates before it calls the stall a livelock.
constexpr Time kMaxStalledSteps = Time{1} << 20;

/// The stamp kernels' per-step guard slot: they arm one guard over the
/// whole loop in advance() instead.
struct NoStepGuard {};

/// The kernel's CacheView: reads the slot arrays in place, plus the
/// page-indexed presence table contains() reads, which the hook
/// instantiation sets at every landing and clears at every eviction.
class SlotView final : public CacheView {
 public:
  explicit SlotView(const BatchState& state) : st_(&state) {
    grow(state.page_slot.size());
  }

  /// Extends the presence table to cover the page index's `pages` ids.
  void grow(std::size_t pages) {
    present_.resize(pages, 0);
    set_presence(present_);
  }
  void set_present(PageId page, bool present) {
    present_[page] = present ? 1 : 0;
  }

  [[nodiscard]] std::size_t occupied() const override {
    return st_->region_occ[0];
  }
  [[nodiscard]] std::size_t capacity() const override {
    return st_->cache_size;
  }
  [[nodiscard]] std::vector<PageId> present_pages() const override {
    std::vector<PageId> pages;
    for (std::size_t s = 0; s < st_->cache_size; ++s) {
      if (st_->slot_status[s] == BatchSlotStatus::kPresent) {
        pages.push_back(st_->slot_page[s]);
      }
    }
    std::sort(pages.begin(), pages.end());
    return pages;
  }

 private:
  const BatchState* st_;
  std::vector<std::uint8_t> present_;
};

/// Calls `fn` with `policy` as a std::integral_constant, so a runtime policy
/// selects a compile-time instantiation.
template <typename Fn>
decltype(auto) with_policy(BatchPolicy policy, Fn&& fn) {
  using P = BatchPolicy;
  switch (policy) {
    case P::kLru: return fn(std::integral_constant<P, P::kLru>{});
    case P::kFifo: return fn(std::integral_constant<P, P::kFifo>{});
    case P::kClock: return fn(std::integral_constant<P, P::kClock>{});
    case P::kLfu: return fn(std::integral_constant<P, P::kLfu>{});
    case P::kMark: return fn(std::integral_constant<P, P::kMark>{});
    case P::kLruScan: return fn(std::integral_constant<P, P::kLruScan>{});
  }
  MCP_REQUIRE(false, "unknown BatchPolicy");
  return fn(std::integral_constant<P, P::kLru>{});
}

}  // namespace

std::uint32_t checked_core_len(std::size_t requests) {
  MCP_REQUIRE(requests <= kStreamCursorEnd, kCoreTooLong);
  return static_cast<std::uint32_t>(requests);
}

struct BatchEngine::Hooks {
  CacheStrategy& strategy;
  RequestStream* stream;  ///< null over a materialized set (cursor reads)
  std::span<SimObserver* const> observers;
  SlotView view;
  Time guard_after = 0;  ///< SimConfig::alloc_guard_after_step
  Time stalled_steps = 0;
  std::vector<CoreId> slot_fetcher{};  ///< core whose fault fills each slot
  std::vector<PageId> landed{};        ///< one step's landing batch
  std::vector<PageId> evictions{};     ///< strategy scratch, fault or voluntary

  template <typename Fn>
  void notify(Fn&& fn) const {
    for (SimObserver* obs : observers) fn(*obs);
  }
};

void BatchEngine::check_shape(const SimConfig& config, std::size_t num_cores,
                              std::size_t regions) {
  MCP_REQUIRE(config.cache_size > 0, "SimConfig.cache_size must be positive");
  MCP_REQUIRE(num_cores > 0, "request stream has no cores");
  // Slot ids and the lists' sentinel ids (K + r) are 32 bits, and
  // kNoBatchSlot must stay free.
  MCP_REQUIRE(config.cache_size + regions <= kNoBatchSlot,
              "SimConfig.cache_size leaves no 32-bit slot ids for the "
              "recency lists");
}

BatchEngine::BatchEngine(const SimConfig& config, std::size_t num_cores,
                         const BatchStrategySpec& strategy)
    : stats_(num_cores) {
  const std::size_t cache_size = config.cache_size;
  const bool partitioned =
      strategy.kind == BatchStrategySpec::Kind::kStaticPartition;
  const std::size_t regions = partitioned ? num_cores : 1;
  check_shape(config, num_cores, regions);
  if (partitioned) {
    MCP_REQUIRE(strategy.partition.size() == num_cores,
                "static partition spec must have one part per core");
    std::size_t sum = 0;
    for (const std::size_t part : strategy.partition) {
      MCP_REQUIRE(part >= 1, "every core's part must hold at least one page");
      sum += part;
    }
    MCP_REQUIRE(sum == cache_size, "partition must sum to the cache size");
  } else {
    MCP_REQUIRE(strategy.partition.empty(),
                "shared strategy spec takes no partition");
  }

  BatchState& st = state_;
  st.cache_size = static_cast<std::uint32_t>(cache_size);
  st.num_cores = static_cast<std::uint32_t>(num_cores);
  st.tau = config.fault_penalty;
  st.max_steps = config.max_steps;
  st.mode = config.shared_fetch;
  st.kind = strategy.kind;
  st.policy = strategy.policy;
  st.record_timeline = config.record_fault_timeline;
  st.active_cores = static_cast<std::uint32_t>(num_cores);

  st.slot_page.assign(cache_size, kInvalidPage);
  st.slot_status.assign(cache_size, BatchSlotStatus::kFree);
  st.slot_ready.assign(cache_size, 0);
  st.inflight.assign(cache_size, 0);
  // The identity fill seeds every region's free-stack segment with its own
  // slot range (region slot ranges tile [0, K) in region order, so slot and
  // free-stack segments coincide).
  st.free_stack.resize(cache_size);
  for (std::size_t s = 0; s < cache_size; ++s) {
    st.free_stack[s] = static_cast<std::uint32_t>(s);
  }
  st.core_ready.assign(num_cores, 0);
  st.core_finish.assign(num_cores, 0);
  st.core_seq.assign(num_cores, nullptr);
  st.core_len.assign(num_cores, 0);
  st.core_next.assign(num_cores, 0);
  st.core_pending.assign(num_cores, kInvalidPage);
  st.core_flags.assign(num_cores, 0);

  // Every node starts linked to itself: each sentinel's list is empty.
  st.list_prev.resize(cache_size + regions);
  std::iota(st.list_prev.begin(), st.list_prev.end(), std::uint32_t{0});
  st.list_next = st.list_prev;
  st.region_size.resize(regions);
  st.region_occ.assign(regions, 0);
  st.region_slot_base.resize(regions);
  st.region_free_top.resize(regions);
  std::size_t region_slot = 0;
  for (std::size_t r = 0; r < regions; ++r) {
    const std::size_t rsize = partitioned ? strategy.partition[r] : cache_size;
    st.region_size[r] = static_cast<std::uint32_t>(rsize);
    st.region_slot_base[r] = static_cast<std::uint32_t>(region_slot);
    st.region_free_top[r] = static_cast<std::uint32_t>(rsize);
    region_slot += rsize;
  }

  // Policy state, only for the policies that read it.
  const BatchPolicy policy = strategy.policy;
  if (policy == BatchPolicy::kLfu || policy == BatchPolicy::kMark ||
      policy == BatchPolicy::kLruScan) {
    st.slot_last_use.assign(cache_size, 0);
  }
  if (policy == BatchPolicy::kLfu) st.slot_uses.assign(cache_size, 0);
  if (policy == BatchPolicy::kMark) {
    // Epoch 0 is never current, so a fresh slot starts unmarked.
    st.slot_mark.assign(cache_size, 0);
    st.region_epoch.assign(regions, 1);
    st.region_marked.assign(regions, 0);
  }
  if (policy == BatchPolicy::kClock) {
    st.slot_referenced.assign(cache_size, 0);
    st.region_hand.resize(regions);
    for (std::size_t r = 0; r < regions; ++r) {
      st.region_hand[r] = static_cast<std::uint32_t>(cache_size + r);
    }
  }
}

RunStats BatchEngine::run(const SimJob& job) {
  MCP_REQUIRE(job.requests != nullptr, "SimJob.requests must not be null");
  const RequestSet& requests = *job.requests;
  BatchEngine engine(job.config, requests.num_cores(), job.strategy);
  engine.feed(requests, requests.page_bound(), /*closed=*/true);
  engine.advance();
  return engine.take_stats();
}

RunStats BatchEngine::run_strategy(const SimConfig& config,
                                   RequestStream& stream,
                                   CacheStrategy& strategy,
                                   const RequestSet* offline_info,
                                   std::span<SimObserver* const> observers) {
  return run_hooks(config, &stream, offline_info, strategy, observers,
                   /*kernel_form=*/false);
}

RunStats BatchEngine::run_strategy(const SimConfig& config,
                                   const RequestSet& requests,
                                   CacheStrategy& strategy,
                                   std::span<SimObserver* const> observers) {
  return run_hooks(config, nullptr, &requests, strategy, observers,
                   /*kernel_form=*/false);
}

RunStats BatchEngine::run_routed(const SimConfig& config,
                                 const RequestSet& requests,
                                 CacheStrategy& strategy) {
  return run_hooks(config, nullptr, &requests, strategy, {},
                   /*kernel_form=*/true);
}

RunStats BatchEngine::run_hooks(const SimConfig& config, RequestStream* stream,
                                const RequestSet* requests,
                                CacheStrategy& strategy,
                                std::span<SimObserver* const> observers,
                                bool kernel_form) {
  const std::size_t p =
      stream != nullptr ? stream->num_cores() : requests->num_cores();
  // The hook engine's shape checks (the constructor below repeats them)
  // come before attach(), and attach() before the kernel form is asked
  // for, so both paths fail alike on a malformed run.
  check_shape(config, p, /*regions=*/1);
  strategy.attach(config, p, requests);
  if (kernel_form) {
    if (const std::optional<BatchStrategySpec> spec = strategy.batch_spec()) {
      BatchEngine kernel(config, p, *spec);
      kernel.feed(*requests, requests->page_bound(), /*closed=*/true);
      kernel.advance();
      return kernel.take_stats();
    }
  }
  // One region spanning the cache: the strategy, not the kernel, decides
  // how cells are shared.  The spec's policy goes unused.
  BatchEngine engine(config, p, BatchStrategySpec::shared(BatchPolicy::kLru));
  BatchState& st = engine.state_;
  st.closed = true;
  if (stream != nullptr) st.core_len.assign(p, kStreamCursorEnd);
  if (requests != nullptr) {
    // A materialized universe sizes the page index once; streams grow it.
    st.page_bound = requests->page_bound();
    st.page_slot.assign(st.page_bound, kNoBatchSlot);
    for (CoreId j = 0; j < p; ++j) {
      const RequestSequence& seq = requests->sequence(j);
      if (stream == nullptr) {
        // The cores read their sequences in place, as in the stamp kernels.
        st.core_seq[j] = seq.pages().data();
        st.core_len[j] = checked_core_len(seq.size());
      }
      if (config.record_fault_timeline) {
        // Worst case every request faults; one reserve beats per-fault
        // growth.
        engine.stats_.core(j).fault_times.reserve(seq.size());
      }
    }
  }
  Hooks hooks{strategy, stream, observers, SlotView(st),
              config.alloc_guard_after_step};
  hooks.slot_fetcher.assign(st.cache_size, kInvalidCore);
  hooks.landed.reserve(st.cache_size);  // at most K fetches land at once
  // Honest strategies evict at most one page per fault and voluntary
  // evictions rarely exceed K; more grows the scratch once.
  hooks.evictions.reserve(st.cache_size);
  engine.hooks_ = &hooks;
  (void)engine.step_loop<true, false, BatchPolicy::kLru>();
  return engine.take_stats();
}

void BatchEngine::feed(const RequestSet& trace, PageId page_bound,
                       bool closed) {
  BatchState& st = state_;
  MCP_REQUIRE(trace.num_cores() == st.num_cores,
              "BatchEngine::feed: trace core count does not match the job");
  MCP_REQUIRE(!st.closed || closed,
              "BatchEngine::feed: a closed feed cannot reopen");
  if (page_bound > st.page_slot.size()) {
    st.page_slot.resize(page_bound, kNoBatchSlot);
  }
  st.page_bound = std::max(st.page_bound, page_bound);
  for (std::uint32_t j = 0; j < st.num_cores; ++j) {
    const RequestSequence& seq = trace.sequence(static_cast<CoreId>(j));
    MCP_REQUIRE(seq.size() >= st.core_len[j],
                "BatchEngine::feed: a feed may only grow");
    st.core_seq[j] = seq.pages().data();
    st.core_len[j] = checked_core_len(seq.size());
    if (st.record_timeline) {
      // Worst case one fault per request: reserve here so advance() stays
      // allocation-free.
      stats_.core(static_cast<CoreId>(j)).fault_times.reserve(seq.size());
    }
  }
  st.closed = closed;
}

template <bool kHooks, bool kPartitioned, BatchPolicy kPolicy>
bool BatchEngine::step_loop() {
  static_assert(!kHooks || (!kPartitioned && kPolicy == BatchPolicy::kLru),
                "the hook instantiation keeps one region and no lists");
  // What the kernel's policy does to a slot it touches (a fetch start or a
  // hit): LRU, MARK and LRU-SCAN relink it at the newest end of its list on
  // a hit as on a fetch start, so their lists stay sorted by last use; LFU,
  // MARK and LRU-SCAN stamp its last use.
  constexpr bool kRelinkOnHit = kPolicy == BatchPolicy::kLru ||
                                kPolicy == BatchPolicy::kMark ||
                                kPolicy == BatchPolicy::kLruScan;
  constexpr bool kStampsUse = kPolicy == BatchPolicy::kLfu ||
                              kPolicy == BatchPolicy::kMark ||
                              kPolicy == BatchPolicy::kLruScan;
  BatchState& st = state_;
  // The arrays as raw locals: hoisting the data pointers out of the vectors
  // keeps the optimizer from reloading them after every store (byte-typed
  // stores may alias the vectors' own pointers as far as it can tell).
  PageId* const slot_page = st.slot_page.data();
  BatchSlotStatus* const slot_status = st.slot_status.data();
  Time* const slot_ready = st.slot_ready.data();
  std::uint32_t* const free_stack = st.free_stack.data();
  std::uint32_t* const inflight = st.inflight.data();
  std::uint32_t* const list_prev = st.list_prev.data();
  std::uint32_t* const list_next = st.list_next.data();
  // Policy state: empty, and never read, under the other policies.
  Time* const slot_last_use = st.slot_last_use.data();
  Count* const slot_uses = st.slot_uses.data();
  std::uint64_t* const slot_mark = st.slot_mark.data();
  std::uint8_t* const slot_referenced = st.slot_referenced.data();
  std::uint64_t* const region_epoch = st.region_epoch.data();
  std::uint32_t* const region_marked = st.region_marked.data();
  std::uint32_t* const region_hand = st.region_hand.data();
  // Not const: the hook instantiation re-reads it after the index grows.
  std::uint32_t* page_slot = st.page_slot.data();
  Time* const core_ready = st.core_ready.data();
  Time* const core_finish = st.core_finish.data();
  const PageId* const* const core_seq = st.core_seq.data();
  const std::uint32_t* const core_len = st.core_len.data();
  std::uint32_t* const core_next = st.core_next.data();
  PageId* const core_pending = st.core_pending.data();
  std::uint8_t* const core_flags = st.core_flags.data();
  const std::uint32_t* const region_size = st.region_size.data();
  std::uint32_t* const region_occ = st.region_occ.data();
  const std::uint32_t* const region_slot_base = st.region_slot_base.data();
  std::uint32_t* const region_free_top = st.region_free_top.data();
  CoreStats* const cores = &stats_.core(0);
  Hooks* const hooks = hooks_;  // non-null exactly in the hook instantiation
  // Only the hook instantiation pulls from a stream, and only when it does
  // not run over a materialized set; every other core reads core_seq.
  RequestStream* const stream = kHooks ? hooks->stream : nullptr;

  const Time tau = st.tau;
  // Region r's list sentinel is node sentinels + r.
  const std::uint32_t sentinels = st.cache_size;
  // The clock lives in a register across the loop (every serve reads it)
  // and is written back at each exit.
  Time now = st.now;

  // The stamp kernels' lists: link_before puts `slot` just before node
  // `at` — before a sentinel is the newest end of its list — and unlink
  // takes it out.
  const auto link_before = [&](std::uint32_t slot, std::uint32_t at) {
    const std::uint32_t prev = list_prev[at];
    list_prev[slot] = prev;
    list_next[slot] = at;
    list_next[prev] = slot;
    list_prev[at] = slot;
  };
  const auto unlink = [&](std::uint32_t slot) {
    list_next[list_prev[slot]] = list_next[slot];
    list_prev[list_next[slot]] = list_prev[slot];
  };
  // The region holding `slot`, a hit of core j: j's own region, except on
  // a static partition's cross-region hit (a non-disjoint trace), where a
  // binary search over the region bases finds it.
  const auto region_of = [&](std::uint32_t slot,
                             std::uint32_t j) -> std::uint32_t {
    if constexpr (!kPartitioned) {
      return 0;
    } else {
      if (slot - region_slot_base[j] < region_size[j]) return j;
      return static_cast<std::uint32_t>(
          std::upper_bound(region_slot_base, region_slot_base + st.num_cores,
                           slot) -
          region_slot_base - 1);
    }
  };
  // CLOCK: the ring position after `slot`, wrapping past the sentinel.
  const auto ring_after = [&](std::uint32_t slot, std::uint32_t sentinel) {
    const std::uint32_t next = list_next[slot];
    return next != sentinel ? next : list_next[sentinel];
  };
  // MARK and LRU-SCAN: the region's list is sorted by `key` (last use,
  // behind the mark for MARK), so equal keys sit
  // together, and the victim — the least key, then the lowest page id,
  // among present slots — is the lowest page of the first run of equal keys
  // that holds a present slot.  The walk passes only slots still fetching
  // before that run, and a run holds at most p slots (one touch per core
  // per step).  Returns the sentinel when every slot is reserved.
  const auto keyed_victim = [&](std::uint32_t sentinel, auto key) {
    std::uint32_t victim = list_next[sentinel];
    while (victim != sentinel &&
           slot_status[victim] != BatchSlotStatus::kPresent) {
      victim = list_next[victim];
    }
    if (victim == sentinel) return victim;
    const auto run = key(victim);
    for (std::uint32_t s = list_next[victim]; s != sentinel && key(s) == run;
         s = list_next[s]) {
      if (slot_status[s] == BatchSlotStatus::kPresent &&
          slot_page[s] < slot_page[victim]) {
        victim = s;
      }
    }
    return victim;
  };
  // Frees `slot` of `region` (whose slots start at `region_begin`).
  const auto release_slot = [&](std::uint32_t slot, std::uint32_t region,
                                std::size_t region_begin) {
    page_slot[slot_page[slot]] = kNoBatchSlot;
    slot_page[slot] = kInvalidPage;
    slot_status[slot] = BatchSlotStatus::kFree;
    if constexpr (kPolicy == BatchPolicy::kClock) {
      // The hand moves on to the next slot, except from the ring's back,
      // where it steps back (to the sentinel once the ring is empty).
      if (region_hand[region] == slot) {
        region_hand[region] = list_next[slot] == sentinels + region
                                  ? list_prev[slot]
                                  : list_next[slot];
      }
    }
    if constexpr (kPolicy == BatchPolicy::kMark) {
      if (slot_mark[slot] == region_epoch[region]) --region_marked[region];
    }
    if constexpr (!kHooks) unlink(slot);
    free_stack[region_begin + region_free_top[region]++] = slot;
    --region_occ[region];
  };
  // Core j served its last request.
  const auto finish_core = [&](std::uint32_t j, std::uint8_t flags) {
    core_flags[j] = static_cast<std::uint8_t>(flags | kBatchCoreDone);
    cores[j].completion_time = core_finish[j];
    --st.active_cores;
    if constexpr (kHooks) {
      hooks->strategy.on_core_done(j, now);
      hooks->notify(
          [&](SimObserver& obs) { obs.on_core_done(j, core_finish[j]); });
    }
  };
  // Hook instantiation: the AccessContext of core j's request for `page`
  // (core_next counts the requests the core has read or pulled).
  const auto context = [&](std::uint32_t j, PageId page) {
    return AccessContext{j, page, now, std::size_t{core_next[j]} - 1};
  };
  // Hook instantiation: validates the strategy's proposals in
  // hooks->evictions against the slot arrays, then applies them.
  const auto apply_evictions = [&](PageId incoming, CoreId cause_core,
                                   EvictionCause cause) {
    const std::vector<PageId>& victims = hooks->evictions;
    // Duplicates by linear scan over the validated prefix: victims are
    // almost always 0 or 1 pages.
    for (auto it = victims.begin(); it != victims.end(); ++it) {
      const PageId victim = *it;
      MCP_REQUIRE(victim != incoming, "strategy evicted the incoming page");
      MCP_REQUIRE(std::find(victims.begin(), it, victim) == it,
                  "strategy evicted a page twice");
      MCP_REQUIRE(victim < st.page_bound && page_slot[victim] != kNoBatchSlot,
                  "evict: page not resident");
      const std::uint32_t slot = page_slot[victim];
      MCP_REQUIRE(slot_status[slot] == BatchSlotStatus::kPresent,
                  "evict: page is still being fetched (reserved cell)");
      release_slot(slot, 0, 0);
      hooks->view.set_present(victim, false);
      hooks->notify([&](SimObserver& obs) {
        obs.on_evict(victim, cause_core, now, cause);
      });
    }
  };

  for (;;) {
    // Hook instantiation: past SimConfig::alloc_guard_after_step the whole
    // step — bookkeeping, strategy callbacks and observers alike — must not
    // touch the heap (DESIGN.md §8).
    [[maybe_unused]] std::conditional_t<kHooks, std::optional<AllocGuard>,
                                        NoStepGuard> step_guard;
    [[maybe_unused]] bool any_deferred = false;
    [[maybe_unused]] bool any_served = false;
    Time next_time = kTimeNever;
    std::uint32_t serve_from = 0;
    if (st.in_step) {
      // Resuming a step parked by a stall below: the preamble (step count,
      // fetch landing) already ran when this step first started, cores before
      // resume_core are already served, and the folded fast-forward min they
      // contributed is restored.  Nothing else ran while the job was parked,
      // so every value is exactly what the uninterrupted step would see.
      st.in_step = false;
      next_time = st.next_time_partial;
      serve_from = st.resume_core;
    } else {
      ++st.steps;
      if (st.max_steps != 0 && st.steps > st.max_steps) {
        st.now = now;  // keep the state consistent even on this exit
        MCP_REQUIRE(st.steps <= st.max_steps,
                    "simulation exceeded SimConfig.max_steps");
      }
      if constexpr (kHooks) {
        if (hooks->guard_after != 0 && st.steps > hooks->guard_after) {
          step_guard.emplace("simulator step loop",
                             std::source_location::current());
        }
        hooks->notify([&](SimObserver& obs) { obs.on_step_begin(now); });
      }

      // 1. Land fetches due now, before any request is served this step.  The
      //    in-flight array holds at most min(p, K) entries; backwards
      //    swap-remove keeps it packed.  A landing slot keeps its place on
      //    its region's list.  Landing order is unobservable in the stamp
      //    kernels; the hook instantiation sorts the batch below.
      for (std::uint32_t i = st.fetching; i-- > 0;) {
        const std::uint32_t slot = inflight[i];
        if (slot_ready[slot] <= now) {
          slot_status[slot] = BatchSlotStatus::kPresent;
          inflight[i] = inflight[--st.fetching];
          if constexpr (kHooks) {
            hooks->landed.push_back(slot_page[slot]);
            hooks->view.set_present(slot_page[slot], true);
          }
        }
      }

      if constexpr (kHooks) {
        // Strategies and observers see the batch in ascending page id, once
        // all of it is present.
        std::sort(hooks->landed.begin(), hooks->landed.end());
        for (const PageId page : hooks->landed) {
          const CoreId by = hooks->slot_fetcher[page_slot[page]];
          hooks->strategy.on_fetch_complete(page, by, now);
          hooks->notify([&](SimObserver& obs) {
            obs.on_fetch_complete(page, by, now);
          });
        }
        hooks->landed.clear();

        // 2. Voluntary evictions (dynamic-partition shrinks, dishonest
        //    moves).  The stamp kernels' strategies never make any.
        hooks->evictions.clear();
        hooks->strategy.on_step_begin(now, hooks->view, hooks->evictions);
        apply_evictions(kInvalidPage, kInvalidCore, EvictionCause::kVoluntary);
      }
    }

    // 3. Serve ready cores in increasing core id — the paper's fixed logical
    //    service order for simultaneous requests.  The fast-forward min is
    //    folded into the same pass: iteration j is the only writer of core
    //    j's ready time, so the value observed here is the value a separate
    //    second pass would read.
    for (std::uint32_t j = serve_from; j < st.num_cores; ++j) {
      const std::uint8_t flags = core_flags[j];
      if ((flags & kBatchCoreDone) != 0) continue;
      if (core_ready[j] > now) {
        next_time = std::min(next_time, core_ready[j]);
        continue;
      }
      // The pending array materializes a pulled-but-unserved request only on
      // the paths that actually park one (kJoinsFetch, a deferral); a
      // request served the same step it is pulled stays in this register,
      // so the hit path writes no pending state at all.
      PageId page;
      if ((flags & kBatchCorePending) != 0) {
        page = core_pending[j];
      } else if (stream == nullptr) {
        if (core_next[j] >= core_len[j]) {
          if (!st.closed) {
            // The feed may still grow, so the job parks mid-step before
            // core j — a later same-step core must never be served ahead of
            // an earlier one.  This branch lives on the already-cold
            // cursor-exhausted path, so the hot loop is untouched while the
            // job has buffered requests.  (The hook instantiation's feed is
            // always closed.)
            st.in_step = true;
            st.resume_core = j;
            st.next_time_partial = next_time;
            st.now = now;
            return false;
          }
          finish_core(j, flags);
          continue;
        }
        page = core_seq[j][core_next[j]++];
      } else if constexpr (kHooks) {
        const std::optional<PageId> next = stream->next(j);
        if (!next.has_value()) {
          finish_core(j, flags);
          continue;
        }
        page = *next;
        MCP_REQUIRE(core_next[j] < core_len[j], kCoreTooLong);
        ++core_next[j];
        if (page >= st.page_bound) {
          // Declared growth: a stream's universe is unknown up front, so
          // the page index doubles on demand (linear total work).
          MCP_REQUIRE(page != kInvalidPage,
                      "request stream issued the reserved page id");
          AllocAllow allow;
          const std::size_t grown =
              std::max<std::size_t>({std::size_t{page} + 1, 64,
                                     std::size_t{2} * st.page_bound});
          st.page_slot.resize(grown, kNoBatchSlot);
          st.page_bound = static_cast<PageId>(grown);
          page_slot = st.page_slot.data();
          hooks->view.grow(grown);
        }
      }
      if constexpr (kHooks) {
        // Model extension (experiment E18): a deferred request stays
        // pending and its core stays ready for the next step.
        if (hooks->strategy.defer_request(context(j, page), hooks->view)) {
          if ((flags & kBatchCorePending) == 0) {
            core_pending[j] = page;
            core_flags[j] =
                static_cast<std::uint8_t>(flags | kBatchCorePending);
          }
          any_deferred = true;
          continue;
        }
        any_served = true;
      }
      MCP_ASSERT(page < st.page_bound);
      std::uint32_t& slot_of_page = page_slot[page];
      CoreStats& core_stats = cores[j];

      if (slot_of_page != kNoBatchSlot &&
          slot_status[slot_of_page] == BatchSlotStatus::kPresent) {
        // Hit: served within the step, and the policy touches the slot in
        // the region holding it (core j's own but on a cross-region hit).
        ++core_stats.hits;
        ++core_stats.requests;
        if constexpr (!kHooks) {
          const std::uint32_t slot = slot_of_page;
          if constexpr (kRelinkOnHit) {
            const std::uint32_t region = region_of(slot, j);
            unlink(slot);
            link_before(slot, sentinels + region);
            if constexpr (kPolicy == BatchPolicy::kMark) {
              if (slot_mark[slot] != region_epoch[region]) {
                slot_mark[slot] = region_epoch[region];
                ++region_marked[region];
              }
            }
          }
          if constexpr (kPolicy == BatchPolicy::kClock) {
            slot_referenced[slot] = 1;
          }
          if constexpr (kPolicy == BatchPolicy::kLfu) ++slot_uses[slot];
          if constexpr (kStampsUse) slot_last_use[slot] = now;
        }
        if constexpr (kHooks) {
          const AccessContext ctx = context(j, page);
          hooks->strategy.on_hit(ctx);
          hooks->notify([&](SimObserver& obs) { obs.on_hit(ctx); });
        }
        core_ready[j] = now + 1;
        core_finish[j] = now;
        if ((flags & kBatchCorePending) != 0) {
          core_flags[j] = static_cast<std::uint8_t>(flags & ~kBatchCorePending);
        }
        next_time = std::min(next_time, now + 1);
        continue;
      }

      if (slot_of_page != kNoBatchSlot) {
        // The page is in flight on behalf of another core.
        if (st.mode == SharedFetchMode::kJoinsFetch) {
          // Block until the fetch lands, then re-serve the parked request
          // (usually a hit; a fault if the page was evicted again).
          if ((flags & kBatchCorePending) == 0) {
            core_pending[j] = page;
            core_flags[j] = static_cast<std::uint8_t>(flags | kBatchCorePending);
          }
          const Time wake = std::max(slot_ready[slot_of_page], now + 1);
          core_ready[j] = wake;
          next_time = std::min(next_time, wake);
          continue;
        }
        // kCountsAsFault: full penalty, but the request joins the in-flight
        // fetch — no cell is taken and no victim is chosen.
        ++core_stats.faults;
        ++core_stats.requests;
        if (st.record_timeline) core_stats.fault_times.push_back(now);
        if constexpr (kHooks) {
          const AccessContext ctx = context(j, page);
          hooks->notify([&](SimObserver& obs) { obs.on_fault(ctx); });
          hooks->evictions.clear();
          hooks->strategy.on_fault(ctx, hooks->view, /*needs_cell=*/false,
                                   hooks->evictions);
          MCP_REQUIRE(hooks->evictions.empty(),
                      "on_fault(needs_cell=false) must not request evictions");
        }
        core_ready[j] = now + tau + 1;
        core_finish[j] = now + tau;
        if ((flags & kBatchCorePending) != 0) {
          core_flags[j] = static_cast<std::uint8_t>(flags & ~kBatchCorePending);
        }
        next_time = std::min(next_time, now + tau + 1);
        continue;
      }

      // Plain fault: evict if the region is full, then begin the fetch.
      ++core_stats.faults;
      ++core_stats.requests;
      if (st.record_timeline) core_stats.fault_times.push_back(now);
      const std::uint32_t region = kPartitioned ? j : 0;
      const std::size_t region_begin = region_slot_base[region];
      if constexpr (kHooks) {
        // The strategy picks the victims; the kernel validates and applies.
        const AccessContext ctx = context(j, page);
        hooks->notify([&](SimObserver& obs) { obs.on_fault(ctx); });
        hooks->evictions.clear();
        hooks->strategy.on_fault(ctx, hooks->view, /*needs_cell=*/true,
                                 hooks->evictions);
        apply_evictions(page, j, EvictionCause::kFault);
        MCP_REQUIRE(region_occ[0] < region_size[0],
                    "strategy left no free cell for a faulting request");
      } else if (region_occ[region] == region_size[region]) {
        // Victim from the full region, whose list holds all of its slots;
        // the sentinel when every one of them is reserved.
        const std::uint32_t sentinel = sentinels + region;
        std::uint32_t victim = sentinel;
        if constexpr (kPolicy == BatchPolicy::kLru ||
                      kPolicy == BatchPolicy::kFifo) {
          // The oldest present slot: the walk from the oldest end passes
          // only slots still fetching, at most `fetching` <= min(p, K).
          victim = list_next[sentinel];
          while (victim != sentinel &&
                 slot_status[victim] != BatchSlotStatus::kPresent) {
            victim = list_next[victim];
          }
        } else if constexpr (kPolicy == BatchPolicy::kClock) {
          // The sweep from the hand passes reserved slots untouched, clears
          // every set bit it passes and stops at the first clear one, where
          // the hand stays.  Two turns find a present slot if there is one.
          std::uint32_t hand = region_hand[region];
          for (std::size_t turns = 2 * std::size_t{region_size[region]};
               turns > 0; --turns) {
            if (slot_status[hand] == BatchSlotStatus::kPresent) {
              if (slot_referenced[hand] == 0) {
                victim = hand;
                break;
              }
              slot_referenced[hand] = 0;
            }
            hand = ring_after(hand, sentinel);
          }
          region_hand[region] = hand;
        } else if constexpr (kPolicy == BatchPolicy::kLfu) {
          // The least (uses, last use, page id) among present slots, by a
          // scan of the region's slot range (the list keeps LFU's slots in
          // fetch-start order and goes unread here).
          const std::size_t region_end = region_begin + region_size[region];
          for (std::size_t s = region_begin; s < region_end; ++s) {
            if (slot_status[s] != BatchSlotStatus::kPresent) continue;
            if (victim == sentinel ||
                std::tuple{slot_uses[s], slot_last_use[s], slot_page[s]} <
                    std::tuple{slot_uses[victim], slot_last_use[victim],
                               slot_page[victim]}) {
              victim = static_cast<std::uint32_t>(s);
            }
          }
        } else if constexpr (kPolicy == BatchPolicy::kMark) {
          // Every tracked slot marked: the phase ends and all marks clear.
          if (region_marked[region] == region_occ[region]) {
            ++region_epoch[region];
            region_marked[region] = 0;
          }
          const std::uint64_t epoch = region_epoch[region];
          victim = keyed_victim(sentinel, [&](std::uint32_t s) {
            return std::pair{slot_mark[s] == epoch, slot_last_use[s]};
          });
        } else {
          static_assert(kPolicy == BatchPolicy::kLruScan);
          victim = keyed_victim(
              sentinel, [&](std::uint32_t s) { return slot_last_use[s]; });
        }
        if (victim == sentinel) {
          st.now = now;  // keep the state consistent even on this exit
          MCP_REQUIRE(victim != sentinel,
                      "batch engine: no evictable page (all reserved)");
        }
        release_slot(victim, region, region_begin);
      }
      MCP_ASSERT(region_free_top[region] > 0);
      const std::uint32_t slot =
          free_stack[region_begin + --region_free_top[region]];
      slot_page[slot] = page;
      slot_status[slot] = BatchSlotStatus::kFetching;
      slot_ready[slot] = now + tau + 1;
      if constexpr (kPolicy == BatchPolicy::kClock) {
        // A new slot joins the ring just before the hand with its bit set;
        // an empty ring takes it at the back and hands it the hand.
        const std::uint32_t hand = region_hand[region];
        link_before(slot, hand);
        if (hand == sentinels + region) region_hand[region] = slot;
        slot_referenced[slot] = 1;
      } else if constexpr (!kHooks) {
        link_before(slot, sentinels + region);
      }
      if constexpr (kPolicy == BatchPolicy::kLfu) slot_uses[slot] = 1;
      if constexpr (kPolicy == BatchPolicy::kMark) {
        slot_mark[slot] = region_epoch[region];
        ++region_marked[region];
      }
      if constexpr (kStampsUse) slot_last_use[slot] = now;
      slot_of_page = slot;
      inflight[st.fetching++] = slot;
      ++region_occ[region];
      if constexpr (kHooks) hooks->slot_fetcher[slot] = j;
      core_ready[j] = now + tau + 1;
      core_finish[j] = now + tau;
      if ((flags & kBatchCorePending) != 0) {
        core_flags[j] = static_cast<std::uint8_t>(flags & ~kBatchCorePending);
      }
      next_time = std::min(next_time, now + tau + 1);
    }

    if constexpr (kHooks) {
      hooks->notify([&](SimObserver& obs) { obs.on_step_end(now); });
      // Checked builds revalidate the deep state invariants at every step
      // boundary (validate() carries its own AllocAllow).
      MCP_CHECKED_ONLY(validate());
    }

    if (st.active_cores == 0) {
      stats_.end_time = now;
      stats_.sim_steps = st.steps;
      st.now = now;
      return true;
    }

    if constexpr (kHooks) {
      // Deferrals with nothing in flight and nothing served make no
      // progress.  Tolerate bounded idle waiting (a strategy may stall
      // until a target time), but call a persistent stall what it is.
      if (any_deferred && !any_served && st.fetching == 0) {
        ++hooks->stalled_steps;
        MCP_REQUIRE(hooks->stalled_steps <= kMaxStalledSteps,
                    "strategy deferred every serviceable request with "
                    "nothing in flight for too long (livelock)");
      } else {
        hooks->stalled_steps = 0;
      }
      // A deferred core stays ready: no fast-forward past the next step.
      if (any_deferred) {
        ++now;
        continue;
      }
    }

    // 4. Fast-forward to the next step at which any core can act.
    MCP_ASSERT(next_time != kTimeNever);
    now = std::max(now + 1, next_time);
  }
}

bool BatchEngine::advance() {
  if (ended()) return true;
  bool done = false;
  {
    AllocGuard guard("batch engine step loop");
    const bool partitioned =
        state_.kind == BatchStrategySpec::Kind::kStaticPartition;
    done = with_policy(state_.policy, [&](auto policy) {
      constexpr BatchPolicy kPolicy = decltype(policy)::value;
      return partitioned ? step_loop<false, true, kPolicy>()
                         : step_loop<false, false, kPolicy>();
    });
  }
  MCP_CHECKED_ONLY(validate());
  return done;
}

RunStats BatchEngine::take_stats() {
  MCP_REQUIRE(ended(), "BatchEngine::take_stats before the job ended");
  return std::move(stats_);
}

void BatchEngine::validate() const {
  // The validator allocates scratch; it is a checked-build/test facility,
  // not hot-path code, so it suspends any enclosing AllocGuard.
  AllocAllow allow;
  const BatchState& st = state_;
  const std::size_t slots = st.cache_size;
  const std::size_t regions = st.region_size.size();
  MCP_REQUIRE(st.slot_page.size() == slots && st.slot_status.size() == slots &&
                  st.slot_ready.size() == slots &&
                  st.free_stack.size() == slots && st.inflight.size() == slots,
              "batch state: slot arrays are not sized to the cache");
  MCP_REQUIRE(st.list_prev.size() == slots + regions &&
                  st.list_next.size() == slots + regions,
              "batch state: recency lists are not sized to the slots and "
              "regions");
  MCP_REQUIRE(st.region_occ.size() == regions &&
                  st.region_slot_base.size() == regions &&
                  st.region_free_top.size() == regions,
              "batch state: region arrays are not sized to the regions");
  const std::size_t cores = st.num_cores;
  MCP_REQUIRE(regions == (st.kind == BatchStrategySpec::Kind::kStaticPartition
                              ? cores
                              : 1),
              "batch state: region count does not match the strategy kind");
  MCP_REQUIRE(st.core_ready.size() == cores &&
                  st.core_finish.size() == cores &&
                  st.core_seq.size() == cores && st.core_len.size() == cores &&
                  st.core_next.size() == cores &&
                  st.core_pending.size() == cores &&
                  st.core_flags.size() == cores &&
                  stats_.num_cores() == cores,
              "batch state: core arrays are not sized to the cores");
  // Policy state: sized for the job's policy, empty for the others.
  const BatchPolicy policy = st.policy;
  const auto sized = [](const auto& array, bool used, std::size_t size) {
    return array.size() == (used ? size : 0);
  };
  const bool stamps = policy == BatchPolicy::kLfu ||
                      policy == BatchPolicy::kMark ||
                      policy == BatchPolicy::kLruScan;
  const bool lfu = policy == BatchPolicy::kLfu;
  const bool mark = policy == BatchPolicy::kMark;
  const bool clock = policy == BatchPolicy::kClock;
  MCP_REQUIRE(sized(st.slot_last_use, stamps, slots) &&
                  sized(st.slot_uses, lfu, slots) &&
                  sized(st.slot_mark, mark, slots) &&
                  sized(st.region_epoch, mark, regions) &&
                  sized(st.region_marked, mark, regions) &&
                  sized(st.slot_referenced, clock, slots) &&
                  sized(st.region_hand, clock, regions),
              "batch state: policy arrays are not sized for the job's "
              "policy");
  MCP_REQUIRE(st.page_bound <= st.page_slot.size(),
              "batch state: page index does not cover the page bound");

  std::vector<std::uint8_t> slot_seen(slots, 0);  // free-stack + in-flight
  std::size_t fetching = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    if (st.slot_status[s] == BatchSlotStatus::kFree) {
      MCP_REQUIRE(st.slot_page[s] == kInvalidPage,
                  "batch state: free slot still names a page");
      continue;
    }
    if (st.slot_status[s] == BatchSlotStatus::kFetching) ++fetching;
    const PageId page = st.slot_page[s];
    MCP_REQUIRE(page < st.page_bound,
                "batch state: slot holds a page outside the page bound");
    MCP_REQUIRE(st.page_slot[page] == s,
                "batch state: page index does not point back at the slot "
                "holding the page");
  }
  for (std::size_t q = 0; q < st.page_slot.size(); ++q) {
    const std::uint32_t s = st.page_slot[q];
    if (hooks_ != nullptr) {
      const bool present =
          s != kNoBatchSlot && st.slot_status[s] == BatchSlotStatus::kPresent;
      MCP_REQUIRE(hooks_->view.contains(static_cast<PageId>(q)) == present,
                  "batch state: the strategies' presence table disagrees "
                  "with the slot statuses");
    }
    if (s == kNoBatchSlot) continue;
    MCP_REQUIRE(q < st.page_bound,
                "batch state: page index entry beyond the page bound");
    MCP_REQUIRE(s < slots && st.slot_status[s] != BatchSlotStatus::kFree &&
                    st.slot_page[s] == q,
                "batch state: page index points at a slot not holding the "
                "page");
  }
  MCP_REQUIRE(st.fetching == fetching,
              "batch state: in-flight count disagrees with slot statuses");
  for (std::size_t t = 0; t < st.fetching; ++t) {
    const std::uint32_t f = st.inflight[t];
    MCP_REQUIRE(f < slots && st.slot_status[f] == BatchSlotStatus::kFetching &&
                    slot_seen[f] == 0,
                "batch state: in-flight array names a non-fetching or "
                "duplicate slot");
    slot_seen[f] = 1;
  }

  std::vector<std::uint8_t> linked(slots, 0);  // reached from a sentinel
  std::size_t region_slot = 0;
  for (std::size_t r = 0; r < regions; ++r) {
    const std::size_t rsize = st.region_size[r];
    MCP_REQUIRE(st.region_slot_base[r] == region_slot,
                "batch state: region slot ranges do not tile the slots in "
                "region order");
    // Bounds the reads of the region's slots and free-stack segment below.
    MCP_REQUIRE(rsize <= slots - region_slot,
                "batch state: region sizes run past the cache size");
    std::size_t occupied = 0;
    for (std::size_t s = region_slot; s < region_slot + rsize; ++s) {
      if (st.slot_status[s] != BatchSlotStatus::kFree) ++occupied;
    }
    MCP_REQUIRE(st.region_occ[r] == occupied,
                "batch state: region occupancy disagrees with the slot "
                "statuses of its range");
    // The recency list: the walk from the sentinel must come back to it
    // through each of the region's non-free slots once, and no others (a
    // cycle that misses the sentinel revisits a node and fails below).
    // The hook instantiation keeps every list empty.
    const std::size_t sentinel = slots + r;
    std::size_t listed = 0;
    for (std::size_t node = sentinel;;) {
      const std::size_t next = st.list_next[node];
      MCP_REQUIRE(next < slots + regions && st.list_prev[next] == node,
                  "batch state: recency list links are not inverse");
      if (next == sentinel) break;
      MCP_REQUIRE(next < slots && next >= region_slot &&
                      next < region_slot + rsize &&
                      st.slot_status[next] != BatchSlotStatus::kFree &&
                      linked[next] == 0,
                  "batch state: recency list names a free, foreign, or "
                  "duplicate slot");
      linked[next] = 1;
      ++listed;
      node = next;
    }
    MCP_REQUIRE(listed == (hooks_ != nullptr ? 0 : occupied),
                "batch state: recency list misses a non-free slot of its "
                "region, or the hook instantiation linked one");
    validate_policy_state(r);
    const std::size_t free_top = st.region_free_top[r];
    MCP_REQUIRE(free_top == rsize - occupied,
                "batch state: free-stack depth disagrees with occupancy");
    for (std::size_t t = 0; t < free_top; ++t) {
      const std::uint32_t f = st.free_stack[region_slot + t];
      MCP_REQUIRE(f >= region_slot && f < region_slot + rsize &&
                      st.slot_status[f] == BatchSlotStatus::kFree &&
                      slot_seen[f] == 0,
                  "batch state: free stack names a non-free, foreign, or "
                  "duplicate slot");
      slot_seen[f] = 1;
    }
    region_slot += rsize;
  }
  MCP_REQUIRE(region_slot == slots,
              "batch state: region sizes do not sum to the cache size");
  std::size_t running = 0;
  for (std::size_t j = 0; j < cores; ++j) {
    MCP_REQUIRE(st.core_next[j] <= st.core_len[j],
                "batch state: core cursor past the end of its feed");
    if ((st.core_flags[j] & kBatchCoreDone) == 0) ++running;
    if ((st.core_flags[j] & kBatchCorePending) != 0) {
      MCP_REQUIRE(st.core_pending[j] < st.page_bound,
                  "batch state: pending request outside the page bound");
    }
  }
  MCP_REQUIRE(running == st.active_cores,
              "batch state: active core count disagrees with core flags");
  // Done flags require a closed feed: an open feed keeps every core live.
  MCP_REQUIRE(st.closed || running == st.num_cores,
              "batch state: core finished on an open feed");
  // A parked step is coherent with its stall: resume core in range, neither
  // done nor holding a pending request (a stall happens at the cursor pull).
  if (st.in_step) {
    MCP_REQUIRE(st.active_cores > 0,
                "batch state: parked step on a job with no live cores");
    MCP_REQUIRE(st.resume_core < st.num_cores,
                "batch state: parked step's resume core out of range");
    const std::size_t rj = st.resume_core;
    MCP_REQUIRE(
        (st.core_flags[rj] & (kBatchCoreDone | kBatchCorePending)) == 0,
        "batch state: parked step's resume core is done or already holds a "
        "pending request");
  }
}

void BatchEngine::validate_policy_state(std::size_t r) const {
  // Region r's list is already known to hold exactly its non-free slots.
  const BatchState& st = state_;
  const std::size_t sentinel = st.cache_size + r;
  switch (st.policy) {
    case BatchPolicy::kLru:
    case BatchPolicy::kFifo:
      return;
    case BatchPolicy::kClock: {
      const std::uint32_t hand = st.region_hand[r];
      bool on_ring = hand == sentinel && st.list_next[sentinel] == sentinel;
      for (std::size_t s = st.list_next[sentinel]; s != sentinel && !on_ring;
           s = st.list_next[s]) {
        on_ring = s == hand;
      }
      MCP_REQUIRE(on_ring,
                  "batch state: CLOCK hand is neither on its region's ring "
                  "nor the sentinel of an empty one");
      return;
    }
    case BatchPolicy::kLfu:
      // Unsorted: the victim scan reads the slot range, not the list.
      for (std::size_t s = st.list_next[sentinel]; s != sentinel;
           s = st.list_next[s]) {
        MCP_REQUIRE(st.slot_last_use[s] <= st.now,
                    "batch state: a slot's last use lies in the future");
        MCP_REQUIRE(st.slot_uses[s] >= 1,
                    "batch state: LFU slot with no recorded use");
      }
      return;
    case BatchPolicy::kMark:
    case BatchPolicy::kLruScan:
      break;
  }
  // Sorted by (major, last use), oldest first, where the major key is the
  // mark under MARK and nothing under LRU-SCAN.
  const bool mark = st.policy == BatchPolicy::kMark;
  std::size_t marked = 0;
  std::uint64_t prev_major = 0;
  Time prev_use = 0;
  std::size_t prev = sentinel;
  for (std::size_t s = st.list_next[sentinel]; s != sentinel;
       prev = s, s = st.list_next[s]) {
    MCP_REQUIRE(st.slot_last_use[s] <= st.now,
                "batch state: a slot's last use lies in the future");
    std::uint64_t major = 0;
    if (mark) {
      MCP_REQUIRE(st.slot_mark[s] <= st.region_epoch[r],
                  "batch state: MARK slot marked in a future epoch");
      major = st.slot_mark[s] == st.region_epoch[r] ? 1 : 0;
      marked += major;
    }
    MCP_REQUIRE(prev == sentinel || major > prev_major ||
                    (major == prev_major && st.slot_last_use[s] >= prev_use),
                "batch state: list is not sorted by its policy's key");
    prev_major = major;
    prev_use = st.slot_last_use[s];
  }
  if (mark) {
    MCP_REQUIRE(st.region_marked[r] == marked,
                "batch state: MARK's marked count disagrees with its slots");
  }
}

// --- SweepRunner::run_jobs ---------------------------------------------------
//
// On a disjoint trace, core j of a static partition owns its k_j cells and
// no other core ever requests its pages, so its whole trajectory — hits,
// faults, fault times, completion — is that of R_j alone on a k_j-cell
// cache under the same policy and tau (the decomposition
// strategies/partition_search.hpp relies on for fault totals).  When a
// trace's static jobs share such per-core runs, run_jobs computes each
// distinct (core, k_j, policy, tau) run once, by a one-region paging pass
// over R_j (simulate_part), and composes every job's RunStats from its
// cores' runs.  Timing composes too: the step loop visits step t exactly
// when some live core issues a request at t or finishes at t (it
// fast-forwards only while every live core waits on its own fetch), so
// sim_steps is the size of the union of the cores' acting steps and
// end_time their latest done step.  Everything else — shared jobs, static
// partitions under CLOCK, LFU, MARK or LRU-SCAN, non-disjoint traces,
// traces whose jobs share no run, malformed jobs — runs BatchEngine::run as
// one job.
//
// Planning is linear in jobs x cores: jobs are grouped by trace and runs
// deduplicated through a hash index on packed keys, with no sort.

namespace {

/// Past this fault penalty a run's acting-step bitset (one bit per step up
/// to its done step, so up to n(tau+1)+1 bits for n requests) could outgrow
/// a fault timeline's one word per request: such jobs stay on the kernel.
constexpr Time kMaxComposedTau = 63;

/// Composed jobs' shape limits, so a run key packs into 64 bits: tau in
/// bits 58-63, the policy in bit 57, the core in bits 32-56 and the part
/// size in bits 0-31.  (The kernel keeps cache sizes in 32 bits anyway.)
constexpr std::size_t kMaxComposedCores = std::size_t{1} << 25;
constexpr std::size_t kMaxComposedCells =
    std::numeric_limits<std::uint32_t>::max();

/// What a core's trajectory alone depends on, besides its sequence, packed
/// as above.  Never 0: a composed job's parts hold at least one cell.
std::uint64_t run_key(CoreId core, std::size_t cells, BatchPolicy policy,
                      Time tau) {
  return tau << 58 |
         std::uint64_t{policy == BatchPolicy::kFifo ? 1U : 0U} << 57 |
         std::uint64_t{core} << 32 | cells;
}

/// Open-addressing map from nonzero u64 keys to dense ids (linear probing,
/// Fibonacci hashing, load <= 1/2): the planner's only lookup structure.
class KeyIndex {
 public:
  /// Empties the index and sizes it for up to `keys` distinct keys.
  void reset(std::size_t keys) {
    std::size_t slots = 4;
    shift_ = 62;
    while (slots < 2 * keys) {
      slots *= 2;
      --shift_;
    }
    keys_.assign(slots, 0);
    ids_.resize(slots);
  }

  /// The id of `key`, which is `fresh` if the key is new.
  std::size_t id(std::uint64_t key, std::size_t fresh) {
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t s = (key * 0x9E3779B97F4A7C15ULL) >> shift_;;
         s = (s + 1) & mask) {
      if (keys_[s] == key) return ids_[s];
      if (keys_[s] == 0) {
        keys_[s] = key;
        ids_[s] = static_cast<std::uint32_t>(fresh);
        return fresh;
      }
    }
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
  unsigned shift_ = 62;
};

/// One distinct per-core run and what composing a job needs of it.
struct PartRun {
  const RequestSequence* sequence = nullptr;  ///< R_j, borrowed from the job
  CoreId core = 0;        ///< j
  PageId page_bound = 0;  ///< exceeds every page id of R_j
  std::size_t cells = 0;
  BatchPolicy policy = BatchPolicy::kLru;
  Time tau = 0;
  bool keep_timeline = false;  ///< some job using the run records it
  CoreStats stats{};
  Time done = 0;  ///< step at which the core finishes
  std::vector<std::uint64_t> acting{};  ///< bit t: the core acts at step t
};

/// A job whose RunStats are composed from per-core runs.
struct ComposedJob {
  std::size_t job = 0;
  std::size_t first = 0;  ///< its cores' run ids start at core_runs[first]
};

struct CompositionPlan {
  std::vector<PartRun> runs;
  std::vector<std::size_t> core_runs;  ///< run id per (composed job, core)
  std::vector<ComposedJob> composed;
  std::vector<std::size_t> kernel;  ///< jobs BatchEngine::run simulates
};

/// A static-partition job under a policy simulate_part implements (LRU or
/// FIFO, the one policy bit of a run key) that passes BatchEngine's shape
/// checks (a malformed one stays on the kernel, which reports it) at a
/// fault penalty the acting-step bitsets can afford and a shape run keys
/// can pack.
bool composable(const SimJob& job) {
  if (job.strategy.kind != BatchStrategySpec::Kind::kStaticPartition ||
      (job.strategy.policy != BatchPolicy::kLru &&
       job.strategy.policy != BatchPolicy::kFifo) ||
      job.requests == nullptr || job.config.fault_penalty > kMaxComposedTau ||
      job.config.cache_size > kMaxComposedCells) {
    return false;
  }
  const std::size_t p = job.requests->num_cores();
  if (p == 0 || p >= kMaxComposedCores || job.strategy.partition.size() != p) {
    return false;
  }
  std::size_t sum = 0;
  for (const std::size_t part : job.strategy.partition) {
    if (part == 0) return false;
    sum += part;
  }
  return sum == job.config.cache_size;
}

/// Dense page-indexed owner pass: true iff no page is requested by two
/// cores, without RequestSet::is_disjoint's per-core hash sets.  `owner`
/// is a reused buffer, sized like the kernel's own page index; `bounds`
/// receives each core's page bound (one past its largest page id).
bool disjoint(const RequestSet& trace, std::vector<CoreId>& owner,
              std::vector<PageId>& bounds) {
  owner.assign(trace.page_bound(), kInvalidCore);
  bounds.assign(trace.num_cores(), 0);
  for (CoreId j = 0; j < trace.num_cores(); ++j) {
    for (const PageId page : trace[j]) {
      bounds[j] = std::max(bounds[j], page + 1);
      CoreId& first = owner[page];
      if (first == j) continue;
      if (first != kInvalidCore) return false;
      first = j;
    }
  }
  return true;
}

/// Groups the composable jobs by trace and decomposes a trace's jobs when
/// they hold fewer distinct per-core runs than cores summed over the jobs
/// and the trace is disjoint.
CompositionPlan plan_compositions(std::span<const SimJob> jobs) {
  CompositionPlan plan;
  KeyIndex index;

  // Composable jobs grouped by trace address: groups in first-appearance
  // order, each group's jobs in job order.
  std::vector<std::vector<std::size_t>> groups;
  index.reset(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!composable(jobs[i])) continue;
    const auto address = reinterpret_cast<std::uintptr_t>(jobs[i].requests);
    const std::size_t g = index.id(address, groups.size());
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(i);
  }

  std::vector<bool> is_composed(jobs.size(), false);
  std::vector<std::size_t> ids;  // local run id per (group job, core)
  std::vector<CoreId> owner;
  std::vector<PageId> bounds;
  for (const std::vector<std::size_t>& group : groups) {
    if (group.size() < 2) continue;  // one job's cores are all distinct runs
    const RequestSet& trace = *jobs[group.front()].requests;
    const std::size_t p = trace.num_cores();

    // Local run ids in first-appearance order; new runs are appended to
    // the plan and dropped again if the trace does not decompose.
    const std::size_t run_base = plan.runs.size();
    index.reset(group.size() * p);
    ids.clear();
    for (const std::size_t i : group) {
      const SimJob& job = jobs[i];
      for (CoreId j = 0; j < p; ++j) {
        const std::size_t cells = job.strategy.partition[j];
        const std::size_t fresh = plan.runs.size() - run_base;
        const std::size_t id =
            index.id(run_key(j, cells, job.strategy.policy,
                             job.config.fault_penalty),
                     fresh);
        if (id == fresh) {
          plan.runs.push_back({.sequence = &trace[j],
                               .core = j,
                               .cells = cells,
                               .policy = job.strategy.policy,
                               .tau = job.config.fault_penalty});
        }
        ids.push_back(id);
      }
    }
    if (plan.runs.size() - run_base == ids.size() ||
        !disjoint(trace, owner, bounds)) {
      plan.runs.resize(run_base);
      continue;
    }

    for (std::size_t r = run_base; r < plan.runs.size(); ++r) {
      plan.runs[r].page_bound = bounds[plan.runs[r].core];
    }
    for (std::size_t c = 0; c < group.size(); ++c) {
      const std::size_t i = group[c];
      is_composed[i] = true;
      plan.composed.push_back({i, plan.core_runs.size()});
      for (std::size_t j = 0; j < p; ++j) {
        const std::size_t id = run_base + ids[c * p + j];
        plan.runs[id].keep_timeline |= jobs[i].config.record_fault_timeline;
        plan.core_runs.push_back(id);
      }
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!is_composed[i]) plan.kernel.push_back(i);
  }
  return plan;
}

/// Computes `run`: R_j alone on its k_j cells is classic paging, so one
/// pass over R_j reproduces the stamp kernel's one-region trajectory.
/// Each cell carries a stamp — the request index at insertion, refreshed by
/// a hit under LRU only — so the minimum stamp is the oldest entry of the
/// kernel's recency list (stamps are unique; alone, the core never finds
/// its oldest cell still fetching), and a fault in a full region evicts
/// it.  Under FIFO that minimum cycles: cells fill in index order and no
/// hit refreshes them, so the oldest insertion is always the cell after
/// the last victim, and a ring cursor replaces the scan.  Alone, the core
/// issues its next request one step after a hit and tau + 1 steps after a
/// fault, and finishes one such gap after its last request; those issue
/// steps and the done step are the steps at which it acts.
void simulate_part(PartRun& run) {
  constexpr std::uint32_t kNoCell = std::numeric_limits<std::uint32_t>::max();
  const std::span<const PageId> sequence = run.sequence->pages();
  const std::size_t cells = run.cells;
  const bool lru = run.policy == BatchPolicy::kLru;
  const Time fault_gap = run.tau + 1;
  std::vector<std::uint32_t> cell_of(run.page_bound, kNoCell);
  std::vector<PageId> cell_page(cells, kInvalidPage);
  std::vector<std::uint64_t> stamp(lru ? cells : 0, 0);
  std::size_t used = 0;
  std::size_t ring = 0;  // FIFO: the next victim once the cells are full

  // The done step is at most n (tau + 1), so one allocation covers every
  // acting step; the words past the done step are trimmed at the end.
  run.acting.assign(sequence.size() * fault_gap / 64 + 1, 0);
  std::uint64_t* const acting = run.acting.data();
  const auto mark = [acting](Time t) {
    acting[t / 64] |= std::uint64_t{1} << (t % 64);
  };
  CoreStats& stats = run.stats;
  Time t = 0;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const PageId page = sequence[i];
    mark(t);
    std::uint32_t cell = cell_of[page];
    if (cell != kNoCell) {
      ++stats.hits;
      if (lru) stamp[cell] = i;
      ++t;
      continue;
    }
    ++stats.faults;
    if (run.keep_timeline) stats.fault_times.push_back(t);
    if (used < cells) {
      cell = static_cast<std::uint32_t>(used++);
    } else {
      if (lru) {
        cell = static_cast<std::uint32_t>(
            std::min_element(stamp.begin(), stamp.end()) - stamp.begin());
      } else {
        cell = static_cast<std::uint32_t>(ring);
        ring = ring + 1 == cells ? 0 : ring + 1;
      }
      cell_of[cell_page[cell]] = kNoCell;
    }
    cell_page[cell] = page;
    cell_of[page] = cell;
    if (lru) stamp[cell] = i;
    t += fault_gap;
  }
  mark(t);
  run.acting.resize(static_cast<std::size_t>(t / 64) + 1);
  stats.requests = sequence.size();
  stats.completion_time = t == 0 ? 0 : t - 1;
  run.done = t;
}

/// `job`'s RunStats from its cores' runs.
RunStats compose(const SimJob& job, const CompositionPlan& plan,
                 const ComposedJob& composed) {
  const std::size_t p = job.requests->num_cores();
  const std::size_t* const ids = plan.core_runs.data() + composed.first;
  RunStats stats(p);
  std::size_t words = 0;
  for (CoreId j = 0; j < p; ++j) {
    const PartRun& run = plan.runs[ids[j]];
    CoreStats& core = stats.core(j);
    core.hits = run.stats.hits;
    core.faults = run.stats.faults;
    core.requests = run.stats.requests;
    core.completion_time = run.stats.completion_time;
    if (job.config.record_fault_timeline) {
      core.fault_times = run.stats.fault_times;
    }
    stats.end_time = std::max(stats.end_time, run.done);
    words = std::max(words, run.acting.size());
  }
  Count steps = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t acting = 0;
    for (std::size_t j = 0; j < p; ++j) {
      const std::vector<std::uint64_t>& bits = plan.runs[ids[j]].acting;
      if (w < bits.size()) acting |= bits[w];
    }
    steps += static_cast<Count>(popcount64(acting));
  }
  MCP_REQUIRE(job.config.max_steps == 0 || steps <= job.config.max_steps,
              "simulation exceeded SimConfig.max_steps");
  stats.sim_steps = steps;
  return stats;
}

}  // namespace

std::vector<RunStats> SweepRunner::run_jobs(std::span<const SimJob> jobs) {
  // Every job, run and composition writes only its own slot, so results are
  // identical for any worker count.  Jobs draw no randomness.
  const auto start = std::chrono::steady_clock::now();
  CompositionPlan plan = plan_compositions(jobs);
  std::vector<RunStats> results(jobs.size());
  ThreadPool& pool = ThreadPool::global();
  // Kernel jobs first: a whole multicore job is the largest unit of work.
  const std::size_t kernel = plan.kernel.size();
  pool.run_indexed(
      kernel + plan.runs.size(),
      [&](std::size_t i) {
        if (i < kernel) {
          results[plan.kernel[i]] = BatchEngine::run(jobs[plan.kernel[i]]);
        } else {
          simulate_part(plan.runs[i - kernel]);
        }
      },
      options_.max_threads);
  pool.run_indexed(
      plan.composed.size(),
      [&](std::size_t c) {
        const ComposedJob& composed = plan.composed[c];
        results[composed.job] = compose(jobs[composed.job], plan, composed);
      },
      options_.max_threads);
  const auto stop = std::chrono::steady_clock::now();
  timing_.cells = jobs.size();
  timing_.wall_seconds = std::chrono::duration<double>(stop - start).count();
  timing_.max_threads = options_.max_threads;
  return results;
}

}  // namespace mcp
