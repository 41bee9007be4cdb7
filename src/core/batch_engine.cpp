// Implementation of the batch kernel and SweepRunner::run_jobs.
//
// The step loop is a transliteration of Simulator::run's step loop (land
// fetches, serve ready cores in increasing id, fast-forward the clock),
// specialized at compile time on (shared vs static-partition, LRU vs FIFO).
// Bit-equality with the scalar engine is argued in DESIGN.md §12; the
// load-bearing piece is the stamp representation of the policies: stamps
// are unique and monotonic per job, LRU writes them on insert and hit, FIFO
// on insert only, so "first evictable page scanning the policy list from
// the back" is exactly "minimum stamp among the region's present slots".
// The scan itself reads one array: non-present slots carry tagged keys
// (kReservedKey / kFreeKey below) that can never win the min while an
// evictable slot exists.
#include "core/batch_engine.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "core/error.hpp"
#include "core/sentry.hpp"
#include "core/sweep.hpp"

namespace mcp {

namespace {

/// Victim-scan keys, folded into slot_stamp: a present slot holds its
/// policy stamp verbatim, a fetching slot holds stamp | kReservedKey (the
/// tag loses every min-comparison while an evictable slot exists and the
/// fetch landing clears it, restoring the stamp), and a free slot holds
/// kFreeKey.  The eviction scan then reduces to an unsigned min over the
/// region's contiguous key array — no status-byte loads, no data-dependent
/// branches — and "no evictable page" is simply min >= kReservedKey.
/// Stamps count serves per job, so they stay far below 2^62.
constexpr std::uint64_t kReservedKey = std::uint64_t{1} << 62;
constexpr std::uint64_t kFreeKey = std::numeric_limits<std::uint64_t>::max();

}  // namespace

BatchEngine::BatchEngine(const SimConfig& config, std::size_t num_cores,
                         const BatchStrategySpec& strategy)
    : stats_(num_cores) {
  const std::size_t cache_size = config.cache_size;
  MCP_REQUIRE(cache_size > 0, "SimConfig.cache_size must be positive");
  MCP_REQUIRE(num_cores > 0, "request stream has no cores");
  const bool partitioned =
      strategy.kind == BatchStrategySpec::Kind::kStaticPartition;
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
  st.slot_stamp.assign(cache_size, kFreeKey);
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

  const std::size_t regions = partitioned ? num_cores : 1;
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
}

RunStats BatchEngine::run(const SimJob& job) {
  MCP_REQUIRE(job.requests != nullptr, "SimJob.requests must not be null");
  const RequestSet& requests = *job.requests;
  BatchEngine engine(job.config, requests.num_cores(), job.strategy);
  engine.feed(requests, requests.page_bound(), /*closed=*/true);
  engine.advance();
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
    st.core_len[j] = static_cast<std::uint32_t>(seq.size());
    if (st.record_timeline) {
      // Worst case one fault per request: reserve here so advance() stays
      // allocation-free.
      stats_.core(static_cast<CoreId>(j)).fault_times.reserve(seq.size());
    }
  }
  st.closed = closed;
}

template <bool kPartitioned, bool kLruTouch>
bool BatchEngine::step_loop() {
  BatchState& st = state_;
  // The arrays as raw locals: hoisting the data pointers out of the vectors
  // keeps the optimizer from reloading them after every store (byte-typed
  // stores may alias the vectors' own pointers as far as it can tell).
  PageId* const slot_page = st.slot_page.data();
  BatchSlotStatus* const slot_status = st.slot_status.data();
  Time* const slot_ready = st.slot_ready.data();
  std::uint64_t* const slot_stamp = st.slot_stamp.data();
  std::uint32_t* const free_stack = st.free_stack.data();
  std::uint32_t* const inflight = st.inflight.data();
  std::uint32_t* const page_slot = st.page_slot.data();
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

  const Time tau = st.tau;
  // The clock and stamp counter live in registers across the loop (every
  // serve touches both) and are written back at each exit.
  Time now = st.now;
  std::uint64_t stamp = st.stamp;

  for (;;) {
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
        AllocAllow allow;  // declared growth: error paths may build a message
        st.now = now;
        st.stamp = stamp;
        throw ModelError("simulation exceeded SimConfig.max_steps");
      }

      // 1. Land fetches due now, before any request is served this step.  The
      //    in-flight array holds at most min(p, K) entries; backwards
      //    swap-remove keeps it packed.  Landing order is unobservable here:
      //    the batchable strategies' on_fetch_complete is a no-op.
      for (std::uint32_t i = st.fetching; i-- > 0;) {
        const std::uint32_t slot = inflight[i];
        if (slot_ready[slot] <= now) {
          slot_status[slot] = BatchSlotStatus::kPresent;
          slot_stamp[slot] &= ~kReservedKey;  // evictable again, stamp intact
          inflight[i] = inflight[--st.fetching];
        }
      }
    }

    // 2. (No voluntary evictions and no deferrals: the batchable strategies
    //    keep the base class's no-op on_step_begin / defer_request.)

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
      // the path that actually parks one (kJoinsFetch); a request served the
      // same step it is pulled stays in this register, so the hit path
      // writes no pending state at all.
      PageId page;
      if ((flags & kBatchCorePending) != 0) {
        page = core_pending[j];
      } else {
        if (core_next[j] >= core_len[j]) {
          if (!st.closed) {
            // The feed may still grow, so the job parks mid-step before
            // core j — a later same-step core must never be served ahead of
            // an earlier one.  This branch lives on the already-cold
            // cursor-exhausted path, so the hot loop is untouched while the
            // job has buffered requests.
            st.in_step = true;
            st.resume_core = j;
            st.next_time_partial = next_time;
            st.now = now;
            st.stamp = stamp;
            return false;
          }
          core_flags[j] = static_cast<std::uint8_t>(flags | kBatchCoreDone);
          cores[j].completion_time = core_finish[j];
          --st.active_cores;
          continue;
        }
        page = core_seq[j][core_next[j]++];
      }
      MCP_ASSERT(page < st.page_bound);
      std::uint32_t& slot_of_page = page_slot[page];
      CoreStats& core_stats = cores[j];

      if (slot_of_page != kNoBatchSlot &&
          slot_status[slot_of_page] == BatchSlotStatus::kPresent) {
        // Hit: served within the step; LRU freshens the slot's stamp.
        ++core_stats.hits;
        ++core_stats.requests;
        if constexpr (kLruTouch) slot_stamp[slot_of_page] = ++stamp;
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
        // fetch — no cell is taken and the policy is not consulted.
        ++core_stats.faults;
        ++core_stats.requests;
        if (st.record_timeline) core_stats.fault_times.push_back(now);
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
      if (region_occ[region] == region_size[region]) {
        // Victim: minimum stamp among the region's present slots (fetching
        // slots carry kReservedKey-tagged keys and free ones kFreeKey, so the
        // min pass needs no status checks and no data-dependent branches —
        // it compiles to a straight-line reduction the hardware can overlap).
        // A second short pass recovers the slot: stamps are unique and the
        // tagged keys can never equal an untagged minimum.  The scan covers
        // only the region's own slot range — K/p slots, not K.
        const std::size_t end = region_begin + region_size[region];
        std::uint64_t oldest = kFreeKey;
        for (std::size_t s = region_begin; s < end; ++s) {
          oldest = std::min(oldest, slot_stamp[s]);
        }
        if (oldest >= kReservedKey) {
          AllocAllow allow;
          st.now = now;  // keep the state consistent even on this exit
          st.stamp = stamp;
          throw ModelError("batch engine: no evictable page (all reserved)");
        }
        std::size_t victim = region_begin;
        while (slot_stamp[victim] != oldest) ++victim;
        page_slot[slot_page[victim]] = kNoBatchSlot;
        slot_page[victim] = kInvalidPage;
        slot_status[victim] = BatchSlotStatus::kFree;
        slot_stamp[victim] = kFreeKey;
        free_stack[region_begin + region_free_top[region]++] =
            static_cast<std::uint32_t>(victim);
        --region_occ[region];
      }
      MCP_ASSERT(region_free_top[region] > 0);
      const std::uint32_t slot =
          free_stack[region_begin + --region_free_top[region]];
      slot_page[slot] = page;
      slot_status[slot] = BatchSlotStatus::kFetching;
      slot_ready[slot] = now + tau + 1;
      slot_stamp[slot] = ++stamp | kReservedKey;
      slot_of_page = slot;
      inflight[st.fetching++] = slot;
      ++region_occ[region];
      core_ready[j] = now + tau + 1;
      core_finish[j] = now + tau;
      if ((flags & kBatchCorePending) != 0) {
        core_flags[j] = static_cast<std::uint8_t>(flags & ~kBatchCorePending);
      }
      next_time = std::min(next_time, now + tau + 1);
    }

    if (st.active_cores == 0) {
      stats_.end_time = now;
      stats_.sim_steps = st.steps;
      st.now = now;
      st.stamp = stamp;
      return true;
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
    if (state_.kind == BatchStrategySpec::Kind::kStaticPartition) {
      done = state_.policy == BatchPolicy::kLru ? step_loop<true, true>()
                                                : step_loop<true, false>();
    } else {
      done = state_.policy == BatchPolicy::kLru ? step_loop<false, true>()
                                                : step_loop<false, false>();
    }
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
  MCP_REQUIRE(st.slot_page.size() == slots && st.slot_status.size() == slots &&
                  st.slot_ready.size() == slots &&
                  st.slot_stamp.size() == slots &&
                  st.free_stack.size() == slots && st.inflight.size() == slots,
              "batch state: slot arrays are not sized to the cache");
  MCP_REQUIRE(st.page_bound <= st.page_slot.size(),
              "batch state: page index does not cover the page bound");

  std::vector<std::uint8_t> slot_seen(slots, 0);  // free-stack + in-flight
  std::size_t fetching = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    // Eviction-key coherence: the victim scan trusts the key tags alone,
    // so a status/key desync would silently evict a reserved slot (or
    // never evict a present one) — check the folding invariant per slot.
    switch (st.slot_status[s]) {
      case BatchSlotStatus::kFree:
        MCP_REQUIRE(st.slot_stamp[s] == kFreeKey,
                    "batch state: free slot's eviction key is not kFreeKey");
        break;
      case BatchSlotStatus::kFetching:
        MCP_REQUIRE((st.slot_stamp[s] & kReservedKey) != 0 &&
                        st.slot_stamp[s] != kFreeKey,
                    "batch state: fetching slot's eviction key lacks the "
                    "reserved tag");
        break;
      case BatchSlotStatus::kPresent:
        MCP_REQUIRE(st.slot_stamp[s] < kReservedKey,
                    "batch state: present slot's eviction key carries a "
                    "reserved or free tag");
        break;
    }
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

  std::size_t region_slot = 0;
  for (std::size_t r = 0; r < st.region_size.size(); ++r) {
    const std::size_t rsize = st.region_size[r];
    MCP_REQUIRE(st.region_slot_base[r] == region_slot,
                "batch state: region slot ranges do not tile the slots in "
                "region order");
    std::size_t occupied = 0;
    for (std::size_t s = region_slot; s < region_slot + rsize; ++s) {
      if (st.slot_status[s] != BatchSlotStatus::kFree) ++occupied;
    }
    MCP_REQUIRE(st.region_occ[r] == occupied,
                "batch state: region occupancy disagrees with the slot "
                "statuses of its range");
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
  for (std::size_t j = 0; j < st.num_cores; ++j) {
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

std::vector<RunStats> SweepRunner::run_jobs(std::span<const SimJob> jobs) {
  // One kernel per job, one pool index per job: jobs write only their own
  // result slot, so results are identical for any worker count.  Jobs draw
  // no randomness; the per-cell Rng run() hands out goes unused.
  return run(jobs.size(),
             [jobs](std::size_t i, Rng&) { return BatchEngine::run(jobs[i]); });
}

}  // namespace mcp
