// Tests for the checked-build analysis layer (core/sentry.hpp):
//
//   * the allocation sentry — AllocGuard trips on a deliberate allocation,
//     stays silent across the real hot loops it guards (simulator step
//     loop, Mattson fault-curve kernel, packed FTF expansion, packed PIF
//     steady-state layers), and AllocAllow marks declared growth;
//   * the deep invariant validators — CacheState::validate(),
//     StateInterner::validate() and validate_front() each catch a
//     deliberately injected corruption of the structure they watch.
//
// gtest assertions allocate, so no EXPECT/ASSERT runs while a guard is
// armed: guarded regions record outcomes into locals and assert after.
#include "core/sentry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/cache_state.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/strategy.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/packed_state.hpp"
#include "offline/pareto_front.hpp"
#include "offline/pif_solver.hpp"
#include "policies/mattson.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"
#include "test_support.hpp"

namespace mcp {

// Corruption-injection backdoors (friends of the structures under test).
struct CacheStateTestAccess {
  static void swap_index_entries(CacheState& cache, PageId a, PageId b) {
    std::swap(cache.page_to_slot_[a], cache.page_to_slot_[b]);
  }
  static void duplicate_free_slot(CacheState& cache) {
    MCP_REQUIRE(cache.free_slots_.size() >= 2, "need two free slots");
    cache.free_slots_[0] = cache.free_slots_[1];
  }
  static void break_fetch_heap(CacheState& cache) {
    MCP_REQUIRE(cache.fetch_heap_.size() >= 2, "need two in-flight fetches");
    std::swap(cache.fetch_heap_.front(), cache.fetch_heap_.back());
  }
};

struct InternerTestAccess {
  static void mutate_stored_hash(StateInterner& interner, std::uint32_t id) {
    interner.hashes_[id] ^= 0x8000000000000001ULL;
  }
  /// Makes id 1 a byte-identical duplicate of id 0 (stored hash kept
  /// consistent, so only the no-duplicates invariant is violated).
  static void duplicate_block(StateInterner& interner) {
    MCP_REQUIRE(interner.count_ >= 2, "need two interned states");
    std::memcpy(const_cast<std::uint64_t*>(interner.arena_.block(1)),
                interner.arena_.block(0),
                interner.stride_ * sizeof(std::uint64_t));
    interner.hashes_[1] = interner.hashes_[0];
  }
};

namespace {

using testing::random_disjoint_workload;
using testing::sim_config;

// ---------------------------------------------------------------------------
// Allocation sentry mechanics
// ---------------------------------------------------------------------------

TEST(AllocSentry, InstrumentationIsLinkedIn) {
  // If this fails the replacement operator new was not linked and every
  // other guard test passes vacuously.
  ASSERT_TRUE(sentry::instrumentation_active());
}

TEST(AllocSentry, GuardTripsOnDeliberateAllocation) {
  bool threw = false;
  std::uint64_t attempts = 0;
  {
    AllocGuard guard("deliberate allocation");
    try {
      // Direct operator-new call: unlike a new-expression, it cannot be
      // elided by the compiler, so the guard always sees the attempt.  The
      // refused allocation is never performed — nothing to free.
      void* refused = ::operator new(64);
      ::operator delete(refused);
    } catch (const ModelError&) {
      threw = true;
    }
    attempts = guard.allocations();
  }
  EXPECT_TRUE(threw);
  EXPECT_GE(attempts, 1u);
}

TEST(AllocSentry, ViolationReportNamesInnermostRegion) {
  // ModelError's copy is non-allocating (libstdc++ shares the message), so
  // the error can be captured under guard; the message string is only
  // built after the guards unwind.
  std::optional<ModelError> caught;
  {
    AllocGuard outer("outer region");
    AllocGuard inner("inner region");
    try {
      std::vector<int> v(100);
      v[0] = 1;
    } catch (const ModelError& e) {
      caught.emplace(e);
    }
  }
  ASSERT_TRUE(caught.has_value());
  const std::string message = caught->what();
  EXPECT_NE(message.find("inner region"), std::string::npos) << message;
  EXPECT_NE(message.find("test_sentry.cpp"), std::string::npos) << message;
}

TEST(AllocSentry, AllowSuspendsAndNestsBackToEnforcing) {
  bool allow_threw = false;
  bool after_threw = false;
  {
    AllocGuard guard("allow scope");
    try {
      AllocAllow allow;
      std::vector<int> v(100);
      v[0] = 1;
    } catch (const ModelError&) {
      allow_threw = true;
    }
    try {
      void* refused = ::operator new(32);  // non-elidable, see above
      ::operator delete(refused);
    } catch (const ModelError&) {
      after_threw = true;
    }
  }
  EXPECT_FALSE(allow_threw);
  EXPECT_TRUE(after_threw);
}

TEST(AllocSentry, GuardIsSilentOnAllocationFreeCode) {
  std::vector<int> warm(64, 1);
  std::uint64_t attempts = 0;
  {
    AllocGuard guard("pure compute");
    int sum = 0;
    for (int x : warm) sum += x;
    warm[0] = sum;
    attempts = guard.allocations();
  }
  EXPECT_EQ(attempts, 0u);
  EXPECT_EQ(warm[0], 64);
}

// ---------------------------------------------------------------------------
// Hot-loop guards: the structural performance claims, enforced end to end.
// A throw inside any of these runs would fail the test — each run IS the
// assertion that the guarded loop performs zero allocations.
// ---------------------------------------------------------------------------

TEST(AllocSentry, SimulatorHitSteadyStateIsAllocationFree) {
  // Two cores cycling inside working sets that fit the cache together:
  // cold faults during warm-up, pure hits afterwards.  S_LRU's hit path is
  // a list splice — allocation-free.
  RequestSet rs;
  for (CoreId j = 0; j < 2; ++j) {
    RequestSequence seq;
    for (int round = 0; round < 60; ++round) {
      for (PageId p = 0; p < 4; ++p) {
        seq.push_back(static_cast<PageId>(j * 4) + p);
      }
    }
    rs.add_sequence(std::move(seq));
  }
  SimConfig cfg = sim_config(/*cache_size=*/8, /*tau=*/1);
  cfg.alloc_guard_after_step = 40;  // all 8 cold faults land well before
  Simulator sim(cfg);
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats stats = sim.run(rs, lru);
  EXPECT_EQ(stats.total_faults(), 8u);  // cold misses only
}

namespace {
/// Minimal non-allocating test strategy: evict the smallest-id present
/// page.  Exists because real policies (LRU's list/map nodes) allocate per
/// insert — this keeps the *fault* path itself under guard.
class MinPresentStrategy final : public CacheStrategy {
 public:
  void attach(const SimConfig&, std::size_t, const RequestSet*) override {}
  void on_hit(const AccessContext&) override {}
  void on_fault(const AccessContext&, const CacheState& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (!needs_cell || cache.free_cells() > 0) return;
    PageId victim = kInvalidPage;
    cache.for_each_present([&victim](PageId page) {
      if (victim == kInvalidPage || page < victim) victim = page;
    });
    evictions.push_back(victim);
  }
  [[nodiscard]] std::string name() const override { return "min-present"; }
};
}  // namespace

TEST(AllocSentry, SimulatorFaultSteadyStateIsAllocationFree) {
  // One core cycling over cache_size + 1 pages: every post-warm-up request
  // faults, exercising begin_fetch / evict / fetch-heap under the guard.
  RequestSet rs;
  {
    RequestSequence seq;
    for (int round = 0; round < 50; ++round) {
      for (PageId p = 0; p < 4; ++p) seq.push_back(p);
    }
    rs.add_sequence(std::move(seq));
  }
  SimConfig cfg = sim_config(/*cache_size=*/3, /*tau=*/1);
  cfg.record_fault_timeline = false;  // a per-fault append is a real
                                      // allocation; not a steady-state one
  cfg.alloc_guard_after_step = 30;
  Simulator sim(cfg);
  MinPresentStrategy strategy;
  const RunStats stats = sim.run(rs, strategy);
  // Min-id eviction on this cycle settles into a fault/hit mix (~2 faults
  // per 4-request round) — what matters is that every one of those faults
  // ran under the armed guard.
  EXPECT_GT(stats.total_faults(), 80u);
}

TEST(AllocSentry, MattsonKernelIsAllocationFree) {
  // lru_fault_curve's stack-distance scan arms its own internal guard —
  // completing without a throw is the assertion.
  Rng rng(1234);
  RequestSequence seq;
  for (int i = 0; i < 4000; ++i) {
    seq.push_back(static_cast<PageId>(rng.below(64)));
  }
  const std::vector<Count> curve = lru_fault_curve(seq, 32);
  ASSERT_EQ(curve.size(), 33u);
  EXPECT_EQ(curve[0], seq.size());
  EXPECT_TRUE(std::is_sorted(curve.rbegin(), curve.rend()));
}

TEST(AllocSentry, FtfPackedExpansionKernelIsAllocationFree) {
  Rng rng(777);
  OfflineInstance inst;
  inst.requests = random_disjoint_workload(rng, 2, 3, 6);
  inst.cache_size = 2;
  inst.tau = 1;

  FtfOptions plain;
  FtfOptions guarded;
  guarded.alloc_guard = true;
  const FtfResult expected = solve_ftf(inst, plain);
  const FtfResult result = solve_ftf(inst, guarded);
  EXPECT_EQ(result.min_faults, expected.min_faults);
  EXPECT_EQ(result.states_expanded, expected.states_expanded);
  EXPECT_GT(result.states_expanded, 1u);
}

TEST(AllocSentry, PifPackedSteadyStateLayersAreAllocationFree) {
  Rng rng(4242);
  PifInstance inst;
  inst.base.requests = random_disjoint_workload(rng, 2, 3, 8);
  inst.base.cache_size = 2;
  inst.base.tau = 1;
  inst.deadline = 24;
  inst.bounds = {100, 100};  // generous: the DP runs the full deadline

  PifOptions plain;
  plain.workers = 1;
  const PifResult expected = solve_pif(inst, plain);
  ASSERT_GT(expected.states_expanded, 0u);

  // Serial engine, guarded past layer 4 (warm-up: scratch buffers, first
  // recycled fronts).
  PifOptions serial = plain;
  serial.alloc_guard_after_layer = 4;
  const PifResult serial_result = solve_pif(inst, serial);
  EXPECT_EQ(serial_result.feasible, expected.feasible);
  EXPECT_EQ(serial_result.states_expanded, expected.states_expanded);
  EXPECT_EQ(serial_result.peak_layer_width, expected.peak_layer_width);

  // Layer-parallel engine: every worker chunk arms its own guard.
  PifOptions parallel = plain;
  parallel.workers = 0;  // all pool workers
  parallel.alloc_guard_after_layer = 4;
  const PifResult parallel_result = solve_pif(inst, parallel);
  EXPECT_EQ(parallel_result.feasible, expected.feasible);
  EXPECT_EQ(parallel_result.states_expanded, expected.states_expanded);
  EXPECT_EQ(parallel_result.peak_layer_width, expected.peak_layer_width);
}

TEST(AllocSentry, BatchEngineStepLoopIsAllocationFree) {
  // The batch kernel's contract is stronger than steady-state: after the
  // constructor and feed() the ENTIRE step loop — cold faults, evictions,
  // fetch landings, fault-timeline appends (reserved at feed time: <= 1
  // fault per request), mid-step stalls, resumes and the end — performs
  // zero allocations.  The trace arrives in three slices, so advance()
  // parks on an exhausted open feed twice; arm our own guard around every
  // advance() (nested outside the kernel's own) and count.
  Rng rng(0xBEEF);
  const RequestSet wide = random_disjoint_workload(rng, 2, 6, 400);
  const RequestSet tall = random_disjoint_workload(rng, 3, 5, 250);
  std::uint64_t attempts = 0;
  Count faults = 0;
  for (const RequestSet* rs : {&wide, &tall}) {
    const std::size_t p = rs->num_cores();
    for (const Time tau : {Time{0}, Time{2}}) {
      for (const BatchStrategySpec& spec :
           {BatchStrategySpec::shared(BatchPolicy::kLru),
            BatchStrategySpec::static_partition(std::vector<std::size_t>(p, 2),
                                                BatchPolicy::kFifo)}) {
        BatchEngine engine(sim_config(2 * p, tau), p, spec);
        RequestSet fed(p);
        const std::size_t slices = 3;
        for (std::size_t slice = 1; slice <= slices; ++slice) {
          for (CoreId core = 0; core < p; ++core) {
            const std::span<const PageId> pages = rs->sequence(core).pages();
            RequestSequence& seq = fed.sequence(core);
            const std::size_t upto = pages.size() * slice / slices;
            seq.append(pages.subspan(seq.size(), upto - seq.size()));
          }
          engine.feed(fed, rs->page_bound(), slice == slices);
          AllocGuard guard("batch engine step loop (test-armed)");
          (void)engine.advance();
          attempts += guard.allocations();
        }
        faults += engine.take_stats().total_faults();
      }
    }
  }
#ifdef MCP_CHECKED_BUILD
  // Checked builds run the deep validator after every advance(); its
  // scratch is a declared AllocAllow growth point — permitted (no throw
  // above), but counted — so the zero-attempt claim is asserted in
  // unchecked builds.
  (void)attempts;
#else
  EXPECT_EQ(attempts, 0u);
#endif
  EXPECT_GT(faults, 0u);  // the guarded loop really exercised the fault path
}

// ---------------------------------------------------------------------------
// Deep invariant validators: each catches its injected corruption.
// ---------------------------------------------------------------------------

namespace {
CacheState populated_cache() {
  CacheState cache(4);
  cache.reserve_universe(16);
  cache.insert_present(1, 0);
  cache.insert_present(2, 0);
  cache.begin_fetch(5, 1, /*ready_at=*/10);
  cache.begin_fetch(7, 1, /*ready_at=*/6);
  return cache;
}
}  // namespace

TEST(CacheStateValidate, PassesOnLiveStates) {
  CacheState cache = populated_cache();
  EXPECT_NO_THROW(cache.validate());
  cache.complete_fetches(10);
  cache.evict(1);
  EXPECT_NO_THROW(cache.validate());
  cache.clear();
  EXPECT_NO_THROW(cache.validate());
}

TEST(CacheStateValidate, CatchesSwappedIndexEntries) {
  CacheState cache = populated_cache();
  CacheStateTestAccess::swap_index_entries(cache, 1, 2);
  EXPECT_THROW(cache.validate(), ModelError);
}

TEST(CacheStateValidate, CatchesFreeSlotDuplicate) {
  CacheState cache(4);
  cache.reserve_universe(8);
  cache.insert_present(3, 0);
  CacheStateTestAccess::duplicate_free_slot(cache);
  EXPECT_THROW(cache.validate(), ModelError);
}

TEST(CacheStateValidate, CatchesFetchHeapDisorder) {
  CacheState cache = populated_cache();  // fetches ready at 10 then 6
  CacheStateTestAccess::break_fetch_heap(cache);
  EXPECT_THROW(cache.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesInjectedLaneSwap) {
  // Corrupt the page array mid-run — swap the pages held by two present
  // slots without fixing the page->slot backpointers — and the page/slot
  // bijection check in BatchEngine::validate() must throw.
  Rng rng(0x5107);
  const RequestSet rs = random_disjoint_workload(rng, 2, 5, 120);
  BatchEngine engine(sim_config(6, 0), 2,
                     BatchStrategySpec::shared(BatchPolicy::kLru));
  RequestSet half(std::size_t{2});
  for (CoreId core = 0; core < 2; ++core) {
    half.sequence(core).append(rs.sequence(core).pages().first(60));
  }
  engine.feed(half, rs.page_bound(), /*closed=*/false);
  ASSERT_FALSE(engine.advance());
  EXPECT_NO_THROW(engine.validate());

  BatchState& state = BatchEngineTestAccess::state(engine);
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t first = kNone;
  std::size_t second = kNone;
  for (std::size_t s = 0; s < state.slot_page.size(); ++s) {
    if (state.slot_status[s] != BatchSlotStatus::kPresent) continue;
    if (first == kNone) {
      first = s;
    } else if (state.slot_page[s] != state.slot_page[first]) {
      second = s;
      break;
    }
  }
  ASSERT_NE(first, kNone);
  ASSERT_NE(second, kNone);
  std::swap(state.slot_page[first], state.slot_page[second]);
  EXPECT_THROW(engine.validate(), ModelError);
}

namespace {
/// A kernel parked mid-step: the feed is revealed and stepped dry but left
/// open, so it stalls at the cursor pull with a parked step (in_step set)
/// — the state the stall invariants guard.
struct ParkedFixture {
  BatchEngine engine{sim_config(4, 1), 2,
                     BatchStrategySpec::shared(BatchPolicy::kLru)};
  RequestSet trace{std::size_t{2}};

  ParkedFixture() {
    const PageId pages_a[] = {1, 2, 1, 3};
    const PageId pages_b[] = {5, 6, 5};
    trace.sequence(0).append(pages_a);
    trace.sequence(1).append(pages_b);
    engine.feed(trace, 8, /*closed=*/false);
    (void)engine.advance();
  }
};
}  // namespace

TEST(BatchStateValidate, CatchesCohortCursorPastFeed) {
  ParkedFixture fx;
  ASSERT_FALSE(fx.engine.ended());
  EXPECT_NO_THROW(fx.engine.validate());
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  // A desynced feed would leave the cursor past the requests it borrowed.
  state.core_next[0] = state.core_len[0] + 1;
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesStalledLaneWithNoLiveCores) {
  ParkedFixture fx;
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  state.active_cores = 0;
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesParkedStepResumeCoreOutOfRange) {
  ParkedFixture fx;
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  ASSERT_TRUE(state.in_step);
  state.resume_core = state.num_cores;
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(InternerValidate, PassesAfterInterning) {
  StateInterner interner(2);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t words[2] = {i, i * 3 + 1};
    interner.intern(words);
  }
  EXPECT_EQ(interner.size(), 100u);
  EXPECT_NO_THROW(interner.validate());
}

TEST(InternerValidate, CatchesMutatedStoredHash) {
  StateInterner interner(2);
  const std::uint64_t a[2] = {1, 2};
  const std::uint64_t b[2] = {3, 4};
  interner.intern(a);
  interner.intern(b);
  InternerTestAccess::mutate_stored_hash(interner, 0);
  EXPECT_THROW(interner.validate(), ModelError);
}

TEST(InternerValidate, CatchesDuplicatePackedState) {
  StateInterner interner(2);
  const std::uint64_t a[2] = {1, 2};
  const std::uint64_t b[2] = {3, 4};
  interner.intern(a);
  interner.intern(b);
  InternerTestAccess::duplicate_block(interner);
  EXPECT_THROW(interner.validate(), ModelError);
}

namespace {
PackedFront staircase_front() {
  // Built through the real insertion kernel: a valid p = 2 staircase.
  PackedFront front;
  const std::uint32_t vectors[][2] = {{3, 1}, {1, 3}, {2, 2}};
  for (const auto& fv : vectors) {
    pareto_insert_packed(front, 2, fv, ParetoProv{});
  }
  return front;
}
}  // namespace

TEST(ParetoFrontValidate, PassesOnInsertedFront) {
  const PackedFront front = staircase_front();
  ASSERT_EQ(front.size(), 3u);
  EXPECT_NO_THROW(validate_front(front, 2));
  // The kernel rejects dominated and duplicate vectors outright.
  PackedFront copy = front;
  const std::uint32_t dominated[2] = {3, 3};
  EXPECT_FALSE(pareto_insert_packed(copy, 2, dominated, ParetoProv{}));
  const std::uint32_t duplicate[2] = {2, 2};
  EXPECT_FALSE(pareto_insert_packed(copy, 2, duplicate, ParetoProv{}));
  EXPECT_EQ(copy.size(), 3u);
}

TEST(ParetoFrontValidate, CatchesShuffledEntries) {
  PackedFront front = staircase_front();
  // Swap entries 0 and 1: (1,3),(2,2),(3,1) -> (2,2),(1,3),(3,1).
  std::swap(front.faults[0], front.faults[2]);
  std::swap(front.faults[1], front.faults[3]);
  EXPECT_THROW(validate_front(front, 2), ModelError);
}

TEST(ParetoFrontValidate, CatchesDominatedPair) {
  PackedFront front = staircase_front();
  // Weaken entry 0 from (1,3) to (1,1): still lex-sorted, but it now
  // dominates (2,2) and (3,1).
  front.faults[1] = 1;
  EXPECT_THROW(validate_front(front, 2), ModelError);
}

}  // namespace
}  // namespace mcp
