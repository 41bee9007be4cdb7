// Tests for the checked-build analysis layer (core/sentry.hpp):
//
//   * the allocation sentry — AllocGuard trips on a deliberate allocation,
//     stays silent across the real hot loops it guards (the step loop's
//     hook and stamp instantiations, Mattson fault-curve kernel, packed FTF
//     expansion, packed PIF steady-state layers), AllocAllow marks declared
//     growth, and a contract failure inside a guard keeps its own message;
//   * the deep invariant validators — BatchEngine::validate(),
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
#include "strategies/static_partition.hpp"
#include "test_support.hpp"

namespace mcp {

// Corruption-injection backdoor (a friend of the structure under test).
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
  // cold faults during warm-up, pure hits afterwards.  S_LRU's hit path
  // relinks a node in flat arrays — allocation-free.
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
/// Two cores, each cycling over 6 pages of its own, then over 6 pages the
/// other core also requests: with K = 8 every policy keeps faulting.
RequestSet faulting_workload() {
  RequestSet rs;
  for (CoreId j = 0; j < 2; ++j) {
    RequestSequence seq;
    for (PageId round = 0; round < 40; ++round) {
      for (PageId p = 0; p < 6; ++p) {
        seq.push_back(static_cast<PageId>(j * 6) + (p * 5 + round) % 6);
      }
    }
    for (int round = 0; round < 20; ++round) {
      for (PageId p = 0; p < 6; ++p) seq.push_back(20 + (p + j) % 6);
    }
    rs.add_sequence(std::move(seq));
  }
  return rs;
}
}  // namespace

TEST(AllocSentry, PolicyStrategiesFaultAllocationFreeFromStepOne) {
  // Every online policy on flat arrays sized at attach (set_capacity) and
  // the static partition's owner table sized from the engine's page bound
  // by the first fault, which a materialized run takes in step 1: past
  // step 1, neither the fault path (victim, remove, insert) nor the hit
  // path allocates, so the guard arms from step 1 on.
  const RequestSet rs = faulting_workload();
  SimConfig cfg = sim_config(/*cache_size=*/8, /*tau=*/2);
  cfg.alloc_guard_after_step = 1;
  for (const std::string& name : online_policy_names()) {
    SharedStrategy shared(make_policy_factory(name));
    StaticPartitionStrategy partition({3, 5}, make_policy_factory(name));
    for (CacheStrategy* strategy :
         {static_cast<CacheStrategy*>(&shared),
          static_cast<CacheStrategy*>(&partition)}) {
      Simulator sim(cfg);
      const RunStats stats = sim.run(rs, *strategy);
      EXPECT_GT(stats.total_faults(), 200u) << strategy->name();
    }
  }
}

namespace {
/// Minimal non-allocating test strategy: evict the smallest-id present
/// page.  It keeps the fault path under guard without any policy, as a
/// baseline for the policy-backed test above.  It tracks the pages it
/// admitted in a buffer sized at attach().
class MinPresentStrategy final : public CacheStrategy {
 public:
  void attach(const SimConfig& config, std::size_t,
              const RequestSet*) override {
    admitted_.clear();
    admitted_.reserve(config.cache_size);
  }
  void on_hit(const AccessContext&) override {}
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (!needs_cell) return;
    if (cache.occupied() == cache.capacity()) {
      auto victim = admitted_.end();
      for (auto it = admitted_.begin(); it != admitted_.end(); ++it) {
        if (cache.contains(*it) &&
            (victim == admitted_.end() || *it < *victim)) {
          victim = it;
        }
      }
      evictions.push_back(*victim);
      *victim = admitted_.back();
      admitted_.pop_back();
    }
    admitted_.push_back(ctx.page);
  }
  [[nodiscard]] std::string name() const override { return "min-present"; }

 private:
  std::vector<PageId> admitted_;
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

namespace {
/// Breaks the model's contract once the run is past `after`: on a fault it
/// proposes the incoming page as its victim (kEvictIncoming) or allocates
/// in on_hit (kAllocate).  Until then it behaves as MinPresentStrategy.
class LateMisbehaviour final : public CacheStrategy {
 public:
  enum class Mode { kEvictIncoming, kAllocate };
  LateMisbehaviour(Mode mode, Time after) : mode_(mode), after_(after) {}

  void attach(const SimConfig& config, std::size_t n,
              const RequestSet* requests) override {
    inner_.attach(config, n, requests);
  }
  void on_hit(const AccessContext& ctx) override {
    if (mode_ == Mode::kAllocate && ctx.now > after_) {
      leak_.push_back(std::make_unique<int>(1));
    }
  }
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (mode_ == Mode::kEvictIncoming && ctx.now > after_) {
      evictions.push_back(ctx.page);
      return;
    }
    inner_.on_fault(ctx, cache, needs_cell, evictions);
  }
  [[nodiscard]] std::string name() const override { return "late"; }

 private:
  Mode mode_;
  Time after_;
  MinPresentStrategy inner_;
  std::vector<std::unique_ptr<int>> leak_;
};

/// One core cycling over four pages in a 3-cell cache: faults and hits
/// both continue past warm-up.
RequestSet four_page_cycle() {
  RequestSet rs;
  RequestSequence seq;
  for (int round = 0; round < 20; ++round) {
    for (PageId p = 0; p < 4; ++p) seq.push_back(p);
  }
  rs.add_sequence(std::move(seq));
  return rs;
}

std::string run_message(LateMisbehaviour::Mode mode) {
  SimConfig cfg = sim_config(/*cache_size=*/3, /*tau=*/0);
  cfg.record_fault_timeline = false;
  cfg.alloc_guard_after_step = 4;
  LateMisbehaviour strategy(mode, /*after=*/8);
  Simulator sim(cfg);
  try {
    (void)sim.run(four_page_cycle(), strategy);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "no error";
}
}  // namespace

TEST(AllocSentry, ContractFailureInsideGuardKeepsItsMessage) {
  // The failing MCP_REQUIRE builds its message under AllocAllow, so the
  // armed per-step guard does not replace it with an allocation report.
  const std::string message =
      run_message(LateMisbehaviour::Mode::kEvictIncoming);
  EXPECT_NE(message.find("strategy evicted the incoming page"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("AllocGuard"), std::string::npos) << message;
}

TEST(AllocSentry, KernelAssertInsideGuardKeepsItsMessage) {
  // kInvalidPage wraps page_bound() to 0, so the stamp kernel's page-bound
  // assert fails inside advance()'s guard; its message, not an allocation
  // report, reaches the caller.
  RequestSet rs;
  rs.add_sequence({0, 3, kInvalidPage, 1, kInvalidPage});
  SimJob job;
  job.config = sim_config(2, 0);
  job.requests = &rs;
  job.strategy = BatchStrategySpec::shared(BatchPolicy::kLru);
  std::string message;
  try {
    (void)BatchEngine::run(job);
  } catch (const ModelError& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("MCP_ASSERT failed"), std::string::npos) << message;
  EXPECT_EQ(message.find("AllocGuard"), std::string::npos) << message;
}

TEST(AllocSentry, StepGuardViolationNamesTheEngineSite) {
  // A strategy allocating past warm-up trips the hook instantiation's
  // per-step guard, which reports its region and the engine's source file.
  const std::string message = run_message(LateMisbehaviour::Mode::kAllocate);
  EXPECT_NE(message.find("AllocGuard"), std::string::npos) << message;
  EXPECT_NE(message.find("simulator step loop"), std::string::npos) << message;
  EXPECT_NE(message.find("batch_engine.cpp"), std::string::npos) << message;
}

TEST(AllocSentry, MattsonKernelIsAllocationFree) {
  // The stack-distance scan sizes its mark words, word tree and last-access
  // map, then arms its own internal guard over the loop — completing
  // without a throw is the assertion.  Reuses of 64 pages land both inside
  // the word being filled and in words behind it, so both distance paths
  // run guarded, under each of the scan's two callers.
  Rng rng(1234);
  RequestSequence seq;
  for (int i = 0; i < 4000; ++i) {
    seq.push_back(static_cast<PageId>(rng.below(64)));
  }
  const std::vector<Count> curve = lru_fault_curve(seq, 32);
  ASSERT_EQ(curve.size(), 33u);
  EXPECT_EQ(curve[0], seq.size());
  EXPECT_TRUE(std::is_sorted(curve.rbegin(), curve.rend()));
  EXPECT_EQ(stack_distances(seq).size(), seq.size());
}

TEST(AllocSentry, FtfPackedExpansionKernelIsAllocationFree) {
  // A small instance, and a wide one whose search outgrows the interner's
  // default reservation (4096 states), so the interner table and the bucket
  // queue grow — through the sink's declared growth points — while the
  // guard is armed.
  Rng small_rng(777);
  Rng wide_rng(780);
  std::vector<OfflineInstance> instances(2);
  instances[0].requests = random_disjoint_workload(small_rng, 2, 3, 6);
  instances[0].cache_size = 2;
  instances[0].tau = 1;
  instances[1].requests = random_disjoint_workload(wide_rng, 3, 5, 16);
  instances[1].cache_size = 5;
  instances[1].tau = 2;

  std::size_t wide_states = 0;
  for (const OfflineInstance& inst : instances) {
    FtfOptions guarded;
    guarded.alloc_guard = true;
    const FtfResult expected = solve_ftf(inst);
    const FtfResult result = solve_ftf(inst, guarded);
    EXPECT_EQ(result.min_faults, expected.min_faults);
    EXPECT_EQ(result.states_expanded, expected.states_expanded);
    EXPECT_GT(result.states_expanded, 1u);
    wide_states = result.states_stored;
  }
  EXPECT_GT(wide_states, 4096u);
}

TEST(AllocSentry, PifPackedSteadyStateLayersAreAllocationFree) {
  Rng rng(4242);
  PifInstance inst;
  inst.base.requests = random_disjoint_workload(rng, 2, 3, 8);
  inst.base.cache_size = 2;
  inst.base.tau = 1;
  inst.deadline = 24;
  inst.bounds = {100, 100};  // generous: the DP runs the full deadline

  const PifResult expected = solve_pif(inst);
  ASSERT_GT(expected.states_expanded, 0u);

  // Guarded past layer 4 (warm-up: scratch buffers, first recycled fronts).
  PifOptions guarded;
  guarded.alloc_guard_after_layer = 4;
  const PifResult result = solve_pif(inst, guarded);
  EXPECT_EQ(result.feasible, expected.feasible);
  EXPECT_EQ(result.states_expanded, expected.states_expanded);
  EXPECT_EQ(result.peak_layer_width, expected.peak_layer_width);
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
    trace.sequence(0) = RequestSequence{1, 2, 1, 3};
    trace.sequence(1) = RequestSequence{5, 6, 5};
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

TEST(BatchStateValidate, PassesOnLiveStates) {
  ParkedFixture fx;
  EXPECT_NO_THROW(fx.engine.validate());  // parked mid-step
  fx.engine.feed(fx.trace, 8, /*closed=*/true);
  ASSERT_TRUE(fx.engine.advance());
  EXPECT_NO_THROW(fx.engine.validate());  // ended
}

namespace {
/// A kernel parked at t=6 with three free slots and one fetch in flight:
/// K=6, tau=5, core 0 requests 1 then 2 (in flight), core 1 requests 5.
struct InFlightFixture {
  BatchEngine engine{sim_config(6, 5), 2,
                     BatchStrategySpec::shared(BatchPolicy::kLru)};
  RequestSet trace{std::size_t{2}};

  InFlightFixture() {
    trace.sequence(0) = RequestSequence{1, 2};
    trace.sequence(1) = RequestSequence{5};
    engine.feed(trace, 8, /*closed=*/false);
    (void)engine.advance();
  }
};
}  // namespace

TEST(BatchStateValidate, CatchesFreeSlotDuplicate) {
  InFlightFixture fx;
  EXPECT_NO_THROW(fx.engine.validate());
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  ASSERT_EQ(state.region_free_top[0], 3u);
  // One free slot listed twice, another lost.
  state.free_stack[1] = state.free_stack[0];
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesSwappedIndexEntries) {
  InFlightFixture fx;
  EXPECT_NO_THROW(fx.engine.validate());
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  // Swap the page->slot entries of page 1 (present) and page 2 (in flight)
  // without touching the slots: each now points at the other's cell.
  std::swap(state.page_slot[1], state.page_slot[2]);
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesInFlightEntryForPresentSlot) {
  InFlightFixture fx;
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  ASSERT_EQ(state.fetching, 1u);
  // Point the in-flight entry at page 1's slot, which has landed.
  state.inflight[0] = state.page_slot[1];
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesPresentSlotMissingFromItsList) {
  InFlightFixture fx;
  EXPECT_NO_THROW(fx.engine.validate());
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  // Unlink page 1's slot (present) from the recency list, as a release
  // that forgot to free it would: the kernel could never evict page 1.
  const std::uint32_t slot = state.page_slot[1];
  ASSERT_EQ(state.slot_status[slot], BatchSlotStatus::kPresent);
  state.list_next[state.list_prev[slot]] = state.list_next[slot];
  state.list_prev[state.list_next[slot]] = state.list_prev[slot];
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesFreeSlotLeftOnTheList) {
  InFlightFixture fx;
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  // Link a free slot at the newest end of the shared region's list (node K
  // is its sentinel), with consistent links: the victim walk could then
  // evict a slot holding no page.
  const std::uint32_t slot = state.free_stack[0];
  ASSERT_EQ(state.slot_status[slot], BatchSlotStatus::kFree);
  const std::uint32_t sentinel = state.cache_size;
  const std::uint32_t newest = state.list_prev[sentinel];
  state.list_prev[slot] = newest;
  state.list_next[slot] = sentinel;
  state.list_next[newest] = slot;
  state.list_prev[sentinel] = slot;
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesRegionSizePastTheCache) {
  InFlightFixture fx;
  EXPECT_NO_THROW(fx.engine.validate());
  BatchState& state = BatchEngineTestAccess::state(fx.engine);
  // The only region reaches three slots past the cache: the validator must
  // reject its size before it reads those slots or their free-stack
  // entries.
  state.region_size[0] = state.cache_size + 3;
  EXPECT_THROW(fx.engine.validate(), ModelError);
}

namespace {
/// One array of the kernel state cut one entry short.
struct Shrink {
  const char* array;
  void (*apply)(BatchState&);
};

/// A kernel under `policy` parked mid-run on an open feed, p = 3, K = 6,
/// tau = 2, with every region full and fetches in flight.
struct PolicyFixture {
  RequestSet trace;
  BatchEngine engine;

  PolicyFixture(BatchPolicy policy, bool partitioned)
      : trace(random_trace()),
        engine(sim_config(6, 2), 3,
               partitioned
                   ? BatchStrategySpec::static_partition({2, 2, 2}, policy)
                   : BatchStrategySpec::shared(policy)) {
    engine.feed(trace, trace.page_bound(), /*closed=*/false);
    (void)engine.advance();
  }

  static RequestSet random_trace() {
    Rng rng(0x5A11);
    return random_disjoint_workload(rng, 3, 5, 60);
  }
};
}  // namespace

TEST(BatchStateValidate, CatchesRegionAndCoreArraysCutShort) {
  // Each array indexed by region or core must cover every region or core
  // before the validator indexes it.
  const Shrink shrinks[] = {
      {"region_occ", [](BatchState& s) { s.region_occ.pop_back(); }},
      {"region_slot_base", [](BatchState& s) { s.region_slot_base.pop_back(); }},
      {"region_free_top", [](BatchState& s) { s.region_free_top.pop_back(); }},
      {"core_ready", [](BatchState& s) { s.core_ready.pop_back(); }},
      {"core_finish", [](BatchState& s) { s.core_finish.pop_back(); }},
      {"core_seq", [](BatchState& s) { s.core_seq.pop_back(); }},
      {"core_len", [](BatchState& s) { s.core_len.pop_back(); }},
      {"core_next", [](BatchState& s) { s.core_next.pop_back(); }},
      {"core_pending", [](BatchState& s) { s.core_pending.pop_back(); }},
      {"core_flags", [](BatchState& s) { s.core_flags.pop_back(); }},
  };
  for (const bool partitioned : {false, true}) {
    for (const Shrink& shrink : shrinks) {
      PolicyFixture fx(BatchPolicy::kLru, partitioned);
      EXPECT_NO_THROW(fx.engine.validate());
      shrink.apply(BatchEngineTestAccess::state(fx.engine));
      EXPECT_THROW(fx.engine.validate(), ModelError)
          << shrink.array << (partitioned ? " partitioned" : " shared");
    }
  }
}

TEST(BatchStateValidate, CatchesPolicyArraysCutShort) {
  // The per-slot and per-region state of the CLOCK, LFU, MARK and
  // LRU-SCAN kernels must cover K slots and every region.
  const std::pair<BatchPolicy, std::vector<Shrink>> cases[] = {
      {BatchPolicy::kClock,
       {{"slot_referenced", [](BatchState& s) { s.slot_referenced.pop_back(); }},
        {"region_hand", [](BatchState& s) { s.region_hand.pop_back(); }}}},
      {BatchPolicy::kLfu,
       {{"slot_last_use", [](BatchState& s) { s.slot_last_use.pop_back(); }},
        {"slot_uses", [](BatchState& s) { s.slot_uses.pop_back(); }}}},
      {BatchPolicy::kMark,
       {{"slot_last_use", [](BatchState& s) { s.slot_last_use.pop_back(); }},
        {"slot_mark", [](BatchState& s) { s.slot_mark.pop_back(); }},
        {"region_epoch", [](BatchState& s) { s.region_epoch.pop_back(); }},
        {"region_marked", [](BatchState& s) { s.region_marked.pop_back(); }}}},
      {BatchPolicy::kLruScan,
       {{"slot_last_use", [](BatchState& s) { s.slot_last_use.pop_back(); }}}},
  };
  for (const auto& [policy, shrinks] : cases) {
    for (const bool partitioned : {false, true}) {
      for (const Shrink& shrink : shrinks) {
        PolicyFixture fx(policy, partitioned);
        EXPECT_NO_THROW(fx.engine.validate());
        shrink.apply(BatchEngineTestAccess::state(fx.engine));
        EXPECT_THROW(fx.engine.validate(), ModelError)
            << batch_policy_name(policy) << " " << shrink.array
            << (partitioned ? " partitioned" : " shared");
      }
    }
  }
  // An LRU job carries no policy arrays at all.
  PolicyFixture lru(BatchPolicy::kLru, false);
  BatchEngineTestAccess::state(lru.engine).slot_last_use.assign(6, 0);
  EXPECT_THROW(lru.engine.validate(), ModelError);
}

TEST(BatchStateValidate, CatchesPolicyStateOutOfStep) {
  // Policy state that no longer matches the lists: a MARK count off by
  // one, a CLOCK hand on the sentinel of a full ring, an LFU slot with no
  // use, and an LRU-SCAN list out of last-use order.
  {
    PolicyFixture fx(BatchPolicy::kMark, false);
    ++BatchEngineTestAccess::state(fx.engine).region_marked[0];
    EXPECT_THROW(fx.engine.validate(), ModelError);
  }
  {
    PolicyFixture fx(BatchPolicy::kClock, false);
    BatchState& st = BatchEngineTestAccess::state(fx.engine);
    ASSERT_EQ(st.region_occ[0], st.cache_size);
    st.region_hand[0] = st.cache_size;
    EXPECT_THROW(fx.engine.validate(), ModelError);
  }
  {
    PolicyFixture fx(BatchPolicy::kLfu, false);
    BatchState& st = BatchEngineTestAccess::state(fx.engine);
    st.slot_uses[st.list_next[st.cache_size]] = 0;
    EXPECT_THROW(fx.engine.validate(), ModelError);
  }
  {
    PolicyFixture fx(BatchPolicy::kLruScan, false);
    BatchState& st = BatchEngineTestAccess::state(fx.engine);
    const std::uint32_t newest = st.list_prev[st.cache_size];
    st.slot_last_use[st.list_next[st.cache_size]] = st.slot_last_use[newest] + 1;
    st.now = st.slot_last_use[newest] + 1;
    EXPECT_THROW(fx.engine.validate(), ModelError);
  }
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
