// Out-of-core storage tests: SpillArena / RecordLog mechanics (heap and
// budget modes, eviction accounting, header validation), the StateInterner
// on a file-backed arena, and end-to-end solver runs under a StorageBudget
// a quarter of their in-memory footprint — results must be bit-equal to
// unbudgeted solves, with real writeback traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/packed_state.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "offline/spill_arena.hpp"
#include "test_support.hpp"

namespace mcp {

/// Corruption-injection backdoor: scribbles over a spill segment's on-file
/// header through its mapping, exactly what validate() must catch.
struct SpillArenaTestAccess {
  static void corrupt_header_word(SpillArena& arena, std::size_t segment,
                                  std::size_t word, std::uint64_t value) {
    ASSERT_LT(segment, arena.segments_.size());
    ASSERT_NE(arena.segments_[segment].map, nullptr);
    static_cast<std::uint64_t*>(arena.segments_[segment].map)[word] = value;
  }
  static bool resident(const SpillArena& arena, std::size_t segment) {
    return arena.segments_.at(segment).resident;
  }
};

namespace {

using testing::random_disjoint_workload;

OfflineInstance make_instance(RequestSet rs, std::size_t k, Time tau) {
  OfflineInstance inst;
  inst.requests = std::move(rs);
  inst.cache_size = k;
  inst.tau = tau;
  return inst;
}

/// A budget tight enough to force eviction on small test arenas: 256-byte
/// segments, two of them resident (the SpillArena minimum).
StorageBudget tight_budget() {
  StorageBudget budget;
  budget.segment_bytes = 256;
  budget.ram_bytes = 512;
  return budget;
}

TEST(SpillArena, HeapModeRoundTripsWithStablePointers) {
  SpillArena arena(3);
  EXPECT_FALSE(arena.spilling());
  std::vector<const std::uint64_t*> ptrs;
  for (std::uint64_t v = 0; v < 500; ++v) {
    const std::uint64_t words[3] = {v, v * 17, ~v};
    const std::uint32_t id = arena.append(words);
    EXPECT_EQ(id, v);
    ptrs.push_back(arena.block(id));
  }
  // Segmenting means earlier pointers survive later appends.
  for (std::uint64_t v = 0; v < 500; ++v) {
    EXPECT_EQ(arena.block(static_cast<std::uint32_t>(v)), ptrs[v]);
    EXPECT_EQ(ptrs[v][0], v);
    EXPECT_EQ(ptrs[v][1], v * 17);
    EXPECT_EQ(ptrs[v][2], ~v);
  }
  EXPECT_EQ(arena.bytes_spilled(), 0u);
  EXPECT_EQ(arena.bytes_in_ram(), arena.peak_bytes_in_ram());
  arena.validate();
}

TEST(SpillArena, BudgetModeEvictsAndReloads) {
  SpillArena arena(4, tight_budget());  // 8 blocks per 256-byte segment
  EXPECT_TRUE(arena.spilling());
  for (std::uint64_t v = 0; v < 200; ++v) {  // 25 segments through 2 resident
    const std::uint64_t words[4] = {v, v + 1, v + 2, v * v};
    arena.append(words);
  }
  EXPECT_EQ(arena.size(), 200u);
  EXPECT_GT(arena.bytes_spilled(), 0u);
  EXPECT_LE(arena.bytes_in_ram(), 512u);
  // Peak can transiently exceed the cap by the segment being appended.
  EXPECT_LE(arena.peak_bytes_in_ram(), 512u + 256u);
  arena.validate();
  // Touching evicted blocks transparently reloads them from the spill file,
  // in an access order hostile to the LRU clock.
  for (std::uint64_t v = 200; v-- > 0;) {
    const std::uint64_t* block = arena.block(static_cast<std::uint32_t>(v));
    EXPECT_EQ(block[0], v);
    EXPECT_EQ(block[3], v * v);
  }
  arena.validate();
}

TEST(SpillArena, CleanSegmentsDropWithoutWriteBack) {
  SpillArena arena(4, tight_budget());  // 8 blocks per 256-byte segment
  for (std::uint64_t v = 0; v < 200; ++v) {  // 25 segments, all full
    const std::uint64_t words[4] = {v, ~v, v << 7, v * 3};
    arena.append(words);
  }
  EXPECT_GT(arena.bytes_spilled(), 0u);
  EXPECT_LE(arena.bytes_spilled(), 24u * 256u);
  arena.validate();
  // Hostile re-reads fault every segment in and evict it again.  The first
  // pass writes back the segments the appends left dirty, once each; the
  // append segment (the 25th) never is.  Later passes evict only clean
  // segments and write nothing.  Every block reads back intact.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t v = 200; v-- > 0;) {
      const std::uint32_t id = static_cast<std::uint32_t>(
          pass == 1 ? (v * 37) % 200 : v);
      const std::uint64_t* block = arena.block(id);
      EXPECT_EQ(block[0], id);
      EXPECT_EQ(block[1], ~std::uint64_t{id});
      EXPECT_EQ(block[2], std::uint64_t{id} << 7);
      EXPECT_EQ(block[3], std::uint64_t{id} * 3);
    }
    EXPECT_EQ(arena.bytes_spilled(), 24u * 256u) << "pass " << pass;
    arena.validate();
  }
  // A new append segment makes the old one evictable: it is written back
  // at most once more.
  const std::uint64_t words[4] = {200, ~std::uint64_t{200}, 200 << 7, 600};
  arena.append(words);
  EXPECT_LE(arena.bytes_spilled(), 25u * 256u);
  EXPECT_EQ(arena.block(200)[3], 600u);
  EXPECT_EQ(arena.block(199)[0], 199u);
  arena.validate();
}

TEST(SpillArena, NeverEvictsTheAppendSegment) {
  SpillArena arena(4, tight_budget());
  std::uint64_t next = 0;
  for (; next < 60; ++next) {  // 7 full segments and 4 blocks of an 8th
    const std::uint64_t words[4] = {next, 0, 0, next + 1};
    arena.append(words);
  }
  const std::size_t tail = 7;
  for (int round = 0; round < 4; ++round) {
    // Touch two older segments per round: with two segments of budget, an
    // LRU choice alone would evict the tail.
    for (const std::uint32_t id : {std::uint32_t{3}, std::uint32_t{19},
                                   std::uint32_t{35}, std::uint32_t{11}}) {
      EXPECT_EQ(arena.block(id)[0], id);
      EXPECT_TRUE(SpillArenaTestAccess::resident(arena, tail)) << round;
    }
    const std::uint64_t words[4] = {next, 0, 0, next + 1};
    EXPECT_EQ(arena.append(words), next);
    ++next;
    EXPECT_TRUE(SpillArenaTestAccess::resident(arena, tail)) << round;
  }
  for (std::uint64_t v = 0; v < next; ++v) {
    EXPECT_EQ(arena.block(static_cast<std::uint32_t>(v))[3], v + 1);
  }
  EXPECT_LE(arena.bytes_in_ram(), 512u);
  arena.validate();
}

TEST(SpillArena, BudgetBelowTwoSegmentsIsRejected) {
  StorageBudget budget;
  budget.segment_bytes = 4096;
  budget.ram_bytes = 4096;  // one segment: eviction could never converge
  EXPECT_THROW(SpillArena(2, budget), ModelError);
}

TEST(SpillArena, ValidateCatchesCorruptSegmentHeader) {
  SpillArena arena(4, tight_budget());
  for (std::uint64_t v = 0; v < 64; ++v) {
    const std::uint64_t words[4] = {v, 0, 0, 0};
    arena.append(words);
  }
  arena.validate();
  SpillArenaTestAccess::corrupt_header_word(arena, 2, 0, 0xdeadbeefULL);
  EXPECT_THROW(arena.validate(), ModelError);
}

TEST(RecordLog, RoundTripsInRamAndSpillModes) {
  for (const bool budgeted : {false, true}) {
    RecordLog log(budgeted ? tight_budget() : StorageBudget{});
    std::vector<std::vector<std::uint64_t>> expect;
    std::uint64_t seed = 1;
    for (std::size_t i = 0; i < 40; ++i) {
      std::vector<std::uint64_t> rec(1 + i % 7);
      for (std::uint64_t& w : rec) w = seed++;
      EXPECT_EQ(log.append(rec.data(), rec.size()), i);
      expect.push_back(std::move(rec));
    }
    std::vector<std::uint64_t> got;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(log.record_words(i), expect[i].size());
      log.read(i, got);
      EXPECT_EQ(got, expect[i]) << "budgeted=" << budgeted << " i=" << i;
    }
    if (budgeted) {
      EXPECT_GT(log.bytes_spilled(), 0u);
      // Records live only in the file; RAM holds the offset index.
      EXPECT_LT(log.bytes_in_ram(), log.bytes_spilled());
    } else {
      EXPECT_EQ(log.bytes_spilled(), 0u);
    }
  }
}

TEST(StateInterner, BudgetBackedInterningStillDedupes) {
  StateInterner interner(2, tight_budget());
  EXPECT_TRUE(interner.spilling());
  std::vector<std::uint32_t> ids;
  for (std::uint64_t v = 0; v < 600; ++v) {
    const std::uint64_t words[2] = {v, v ^ 0xabcdu};
    ids.push_back(interner.intern(words).first);
  }
  EXPECT_EQ(interner.size(), 600u);
  EXPECT_GT(interner.bytes_spilled(), 0u);
  // Dedup probes reach back into evicted segments (block_equal faults the
  // data in); every re-intern must find the original id.
  for (std::uint64_t v = 0; v < 600; ++v) {
    const std::uint64_t words[2] = {v, v ^ 0xabcdu};
    const auto [id, inserted] = interner.intern(words);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(id, ids[v]);
  }
  interner.validate();
}

// ---------------------------------------------------------------------------
// End-to-end: solves under a quarter-footprint budget are bit-equal to
// unbudgeted solves and actually hit the spill file.
// ---------------------------------------------------------------------------

TEST(OfflineSpill, FtfUnderQuarterBudgetMatchesUnbudgeted) {
  Rng rng(112233);
  const RequestSet rs = random_disjoint_workload(rng, 2, 3, 8);
  const OfflineInstance inst = make_instance(rs, 3, 2);

  FtfOptions base;
  base.build_schedule = true;
  const FtfResult clean = solve_ftf(inst, base);
  ASSERT_GT(clean.states_stored, 0u);

  FtfOptions budgeted = base;
  budgeted.expected_states = clean.states_stored;  // reserve-hint satellite
  budgeted.storage.segment_bytes = 256;
  budgeted.storage.ram_bytes = 2048;
  // The budget really is a small fraction of the unbudgeted footprint.
  ASSERT_LT(budgeted.storage.ram_bytes * 4, clean.peak_bytes_in_ram);

  const FtfResult spilled = solve_ftf(inst, budgeted);
  EXPECT_EQ(spilled.min_faults, clean.min_faults);
  EXPECT_EQ(spilled.states_expanded, clean.states_expanded);
  EXPECT_EQ(spilled.states_stored, clean.states_stored);
  // Bit-equal schedule, not merely an equivalent optimum.
  EXPECT_EQ(spilled.schedule, clean.schedule);
  EXPECT_GT(spilled.bytes_spilled, 0u);
  EXPECT_LT(spilled.peak_bytes_in_ram, clean.peak_bytes_in_ram);
  EXPECT_EQ(replay_schedule(inst, spilled.schedule).total_faults(),
            spilled.min_faults);
}

TEST(OfflineSpill, PifUnderBudgetMatchesUnbudgeted) {
  Rng rng(445566);
  const std::size_t p = 2;
  const RequestSet rs = random_disjoint_workload(rng, p, 3, 7);
  PifInstance inst;
  inst.base = make_instance(rs, 3, 1);
  inst.deadline = 12;
  inst.bounds = {4, 4};

  PifOptions base;
  base.build_schedule = true;
  const PifResult clean = solve_pif(inst, base);

  PifOptions budgeted = base;
  budgeted.expected_states = 64;
  budgeted.storage = tight_budget();
  const PifResult spilled = solve_pif(inst, budgeted);

  EXPECT_EQ(spilled.feasible, clean.feasible);
  EXPECT_EQ(spilled.decided_at, clean.decided_at);
  EXPECT_EQ(spilled.states_expanded, clean.states_expanded);
  EXPECT_EQ(spilled.peak_layer_width, clean.peak_layer_width);
  EXPECT_EQ(spilled.schedule, clean.schedule);
  EXPECT_GT(spilled.bytes_spilled, 0u);
  if (clean.feasible) {
    EXPECT_TRUE(verify_pif_witness(inst, spilled.schedule));
  }
}

TEST(OfflineSpill, FtfSolverReportsStorageCounters) {
  Rng rng(778899);
  const RequestSet rs = random_disjoint_workload(rng, 2, 3, 6);
  const OfflineInstance inst = make_instance(rs, 3, 1);
  const FtfResult result = solve_ftf(inst);
  // Unbudgeted solves still account their resident footprint.
  EXPECT_GT(result.peak_bytes_in_ram, 0u);
  EXPECT_EQ(result.bytes_spilled, 0u);
  EXPECT_FALSE(result.resumed);
}

}  // namespace
}  // namespace mcp
