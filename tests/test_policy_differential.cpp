// Differential tests for the flat-array eviction policies
// (policies/policies.hpp, policies/page_table.hpp) against the list/map
// implementations they replaced (reference_policies.hpp):
//
//   * every online policy, driven op for op through the EvictionPolicy
//     interface with random non-evictable predicates, sparse and huge page
//     ids, growth past the reserved capacity, and reset-and-reuse across
//     runs — same victims, sizes, memberships and errors;
//   * LFU, LRU-SCAN and MARK victims when the best-ranked page is reserved
//     (their one-predicate-call fast path falls back to the full scan);
//   * the same policies inside SharedStrategy, StaticPartitionStrategy and
//     StagedPartitionStrategy runs (the strategies' page-indexed owner
//     tables), and the flat Lemma-3 controller against the map-based one —
//     same RunStats field for field.  The objects over flat policies run on
//     the hook instantiation (Simulator::run): simulate() would take the
//     stamp kernel for the policies that have one, so it is checked beside
//     them, not instead of them;
//   * memory: a 16-part static partition over a trace whose largest page id
//     is 2^20 - 1 allocates one page-indexed table, not one per part.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/sentry.hpp"
#include "core/simulator.hpp"
#include "core/stream.hpp"
#include "policies/page_table.hpp"
#include "policies/policies.hpp"
#include "policies/policy_registry.hpp"
#include "reference_policies.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/partition.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

namespace oracle = testing::policy_oracle;
using testing::random_disjoint_workload;
using testing::random_shared_workload;
using testing::run_both_paths;
using testing::sim_config;

struct PolicyPair {
  std::string name;
  PolicyFactory flat;
  PolicyFactory oracle;
};

std::vector<PolicyPair> policy_pairs() {
  return {
      {"lru", [] { return std::make_unique<LruPolicy>(); },
       [] { return std::make_unique<oracle::LruPolicy>(); }},
      {"lru-scan", [] { return std::make_unique<LruScanPolicy>(); },
       [] { return std::make_unique<oracle::LruScanPolicy>(); }},
      {"fifo", [] { return std::make_unique<FifoPolicy>(); },
       oracle::make_fifo},
      {"mru", [] { return std::make_unique<MruPolicy>(); }, oracle::make_mru},
      {"slru", [] { return std::make_unique<SlruPolicy>(); },
       [] { return std::make_unique<oracle::SlruPolicy>(); }},
      {"clock", [] { return std::make_unique<ClockPolicy>(); },
       [] { return std::make_unique<oracle::ClockPolicy>(); }},
      {"lfu", [] { return std::make_unique<LfuPolicy>(); },
       [] { return std::make_unique<oracle::LfuPolicy>(); }},
      {"random", [] { return std::make_unique<RandomPolicy>(77); },
       [] { return std::make_unique<oracle::RandomPolicy>(77); }},
      {"mark", [] { return std::make_unique<MarkingPolicy>(); },
       [] { return std::make_unique<oracle::MarkingPolicy>(false); }},
      {"mark-random",
       [] {
         return std::make_unique<MarkingPolicy>(
             MarkingPolicy::TieBreak::kRandom, 91);
       },
       [] { return std::make_unique<oracle::MarkingPolicy>(true, 91); }},
  };
}

/// Page-id shapes: dense small ids, sparse 32-bit ids, and ids that share
/// their low bits (the worst case for a poorly mixed hash).
enum class Ids { kDense, kSparse, kStrided };

PageId draw_page(Rng& rng, Ids ids) {
  switch (ids) {
    case Ids::kDense:
      return static_cast<PageId>(rng.below(48));
    case Ids::kSparse:
      return rng.below(8) == 0
                 ? kInvalidPage - 1 - static_cast<PageId>(rng.below(4))
                 : static_cast<PageId>(rng.below(kInvalidPage));
    case Ids::kStrided:
      return static_cast<PageId>(rng.below(64)) << 20;
  }
  return 0;
}

/// Expects both calls to throw ModelError or both to return normally.
template <typename F, typename G>
void expect_same_outcome(F&& flat, G&& ref, const std::string& what) {
  bool flat_threw = false;
  bool ref_threw = false;
  try {
    flat();
  } catch (const ModelError&) {
    flat_threw = true;
  }
  try {
    ref();
  } catch (const ModelError&) {
    ref_threw = true;
  }
  EXPECT_EQ(flat_threw, ref_threw) << what;
}

/// Drives `flat` and `ref` through the same random operations: inserts of
/// tracked and untracked pages, hits, removals (also of untracked pages),
/// and victim calls under a random non-evictable subset — with ties in
/// time, since `now` stalls at random.  Region holds at most `region`
/// pages (a strategy evicts before inserting into a full region).
void drive(EvictionPolicy& flat, EvictionPolicy& ref, Rng& rng, Ids ids,
           std::size_t region, int ops, const std::string& label) {
  std::vector<PageId> tracked;
  Time now = 0;
  std::uint64_t salt = 0;
  for (int op = 0; op < ops; ++op) {
    if (rng.below(3) != 0) ++now;
    const AccessContext ctx{0, kInvalidPage, now, static_cast<std::size_t>(op)};
    const std::string what = label + " op=" + std::to_string(op);
    // Each victim call sees a fresh pseudo-random third of pages reserved.
    ++salt;
    const auto evictable = [salt](PageId page) {
      std::uint64_t state = page ^ (salt * 0x9E3779B97F4A7C15ULL);
      return splitmix64(state) % 3 != 0;
    };
    const std::uint64_t kind = rng.below(10);
    if (kind < 4) {
      PageId page = draw_page(rng, ids);
      if (tracked.size() >= region) {
        const PageId v = flat.victim(ctx, [](PageId) { return true; });
        ASSERT_EQ(v, ref.victim(ctx, [](PageId) { return true; })) << what;
        ASSERT_NE(v, kInvalidPage) << what;
        flat.on_remove(v);
        ref.on_remove(v);
        std::erase(tracked, v);
      }
      if (std::find(tracked.begin(), tracked.end(), page) != tracked.end()) {
        // Inserting a tracked page is a contract error in both.
        expect_same_outcome([&] { flat.on_insert(page, ctx); },
                            [&] { ref.on_insert(page, ctx); }, what);
        continue;
      }
      flat.on_insert(page, {0, page, now, ctx.seq_index});
      ref.on_insert(page, {0, page, now, ctx.seq_index});
      tracked.push_back(page);
    } else if (kind < 7 && !tracked.empty()) {
      const PageId page = tracked[rng.below(tracked.size())];
      flat.on_hit(page, {0, page, now, ctx.seq_index});
      ref.on_hit(page, {0, page, now, ctx.seq_index});
    } else if (kind < 8 && !tracked.empty()) {
      const std::size_t i = rng.below(tracked.size());
      flat.on_remove(tracked[i]);
      ref.on_remove(tracked[i]);
      tracked.erase(tracked.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (kind < 9) {
      const PageId v = flat.victim(ctx, evictable);
      ASSERT_EQ(v, ref.victim(ctx, evictable)) << what;
      if (v != kInvalidPage) {
        ASSERT_TRUE(evictable(v)) << what;
      }
    } else {
      PageId page = draw_page(rng, ids);
      if (std::find(tracked.begin(), tracked.end(), page) == tracked.end()) {
        expect_same_outcome([&] { flat.on_remove(page); },
                            [&] { ref.on_remove(page); }, what);
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << what;
    ASSERT_EQ(flat.size(), tracked.size()) << what;
    const PageId probe = rng.below(2) == 0 || tracked.empty()
                             ? draw_page(rng, ids)
                             : tracked[rng.below(tracked.size())];
    ASSERT_EQ(flat.contains(probe), ref.contains(probe)) << what;
  }
}

TEST(PolicyDifferential, FlatPoliciesMatchOracles) {
  for (const PolicyPair& pair : policy_pairs()) {
    for (const Ids ids : {Ids::kDense, Ids::kSparse, Ids::kStrided}) {
      // One policy pair per id shape, reset and reused across runs whose
      // regions grow and shrink; odd runs skip set_capacity (storage grows
      // on demand), and run 3 reserves less than its region holds.
      const auto flat = pair.flat();
      const auto ref = pair.oracle();
      Rng rng(4242 + static_cast<std::uint64_t>(ids));
      const std::size_t regions[] = {1, 7, 3, 24, 2, 16};
      for (std::size_t run = 0; run < std::size(regions); ++run) {
        flat->reset();
        ref->reset();
        if (run % 2 == 0) {
          flat->set_capacity(regions[run]);
          ref->set_capacity(regions[run]);
        } else if (run == 3) {
          flat->set_capacity(4);
          ref->set_capacity(4);
        }
        ASSERT_EQ(flat->size(), 0u);
        drive(*flat, *ref, rng, ids, regions[run], 1500,
              pair.name + " ids=" + std::to_string(static_cast<int>(ids)) +
                  " run=" + std::to_string(run));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(PolicyDifferential, LruRecencyQueriesMatchOracle) {
  LruPolicy flat;
  oracle::LruPolicy ref;
  Rng rng(17);
  std::vector<PageId> tracked;
  for (Time now = 0; now < 3000; ++now) {
    const PageId page = static_cast<PageId>(rng.below(40)) * 1000003u;
    const AccessContext ctx{0, page, now / 2, 0};
    if (std::find(tracked.begin(), tracked.end(), page) != tracked.end()) {
      flat.on_hit(page, ctx);
      ref.on_hit(page, ctx);
    } else {
      if (tracked.size() == 12) {
        const PageId v = flat.least_recent();
        ASSERT_EQ(v, ref.least_recent());
        flat.on_remove(v);
        ref.on_remove(v);
        std::erase(tracked, v);
      }
      flat.on_insert(page, ctx);
      ref.on_insert(page, ctx);
      tracked.push_back(page);
    }
    ASSERT_EQ(flat.least_recent(), ref.least_recent());
    const PageId probe = static_cast<PageId>(rng.below(40)) * 1000003u;
    ASSERT_EQ(flat.last_use(probe), ref.last_use(probe)) << now;
  }
}

/// Runs `flat` and `ref` as one region of `cells` cells over random
/// requests to `cells + 3` pages, evicting each fault's common victim, and
/// checks `same` after every request.
template <typename Flat, typename Ref, typename Same>
void run_region(Flat& flat, Ref& ref, std::size_t cells, Rng& rng, Same same) {
  flat.reset();
  ref.reset();
  flat.set_capacity(cells);
  ref.set_capacity(cells);
  std::vector<PageId> tracked;
  const auto all = [](PageId) { return true; };
  for (Time now = 0; now < 2000; ++now) {
    const PageId page = static_cast<PageId>(rng.below(cells + 3));
    const AccessContext ctx{0, page, now, 0};
    if (std::find(tracked.begin(), tracked.end(), page) != tracked.end()) {
      flat.on_hit(page, ctx);
      ref.on_hit(page, ctx);
    } else {
      if (tracked.size() == cells) {
        const PageId v = flat.victim(ctx, all);
        ASSERT_EQ(v, ref.victim(ctx, all)) << now;
        flat.on_remove(v);
        ref.on_remove(v);
        std::erase(tracked, v);
      }
      flat.on_insert(page, ctx);
      ref.on_insert(page, ctx);
      tracked.push_back(page);
    }
    ASSERT_TRUE(same(flat, ref)) << now;
  }
}

TEST(PolicyDifferential, SlruSegmentsAndMarkingPhasesMatchOracle) {
  Rng rng(5);
  for (const std::size_t cells : {std::size_t{6}, std::size_t{1}}) {
    SlruPolicy slru;
    oracle::SlruPolicy slru_ref;
    run_region(slru, slru_ref, cells, rng, [](const auto& a, const auto& b) {
      return a.protected_size() == b.protected_size();
    });
    MarkingPolicy mark;
    oracle::MarkingPolicy mark_ref(false);
    run_region(mark, mark_ref, cells, rng, [](const auto& a, const auto& b) {
      return a.phases() == b.phases();
    });
  }
}

// ---------------------------------------------------------------------------
// Strategy level: flat policies and page-indexed owner tables against the
// oracles inside whole runs (reserved cells supply the non-evictable pages).
// ---------------------------------------------------------------------------

void expect_same_stats(const RunStats& a, const RunStats& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_cores(), b.num_cores()) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  EXPECT_EQ(a.sim_steps, b.sim_steps) << what;
  for (CoreId j = 0; j < a.num_cores(); ++j) {
    EXPECT_EQ(a.core(j).hits, b.core(j).hits) << what << " core " << j;
    EXPECT_EQ(a.core(j).faults, b.core(j).faults) << what << " core " << j;
    EXPECT_EQ(a.core(j).completion_time, b.core(j).completion_time)
        << what << " core " << j;
    EXPECT_EQ(a.core(j).fault_times, b.core(j).fault_times)
        << what << " core " << j;
  }
}

/// Random request set over a few pages per core with ids spread over
/// [0, 2^18) (the engine and the owner tables size page-indexed arrays by
/// the largest id, so the policies' own sparse-id coverage is drive()'s).
RequestSet sparse_workload(Rng& rng, std::size_t cores, std::size_t pages,
                           std::size_t length) {
  std::vector<std::vector<PageId>> universes(cores);
  for (auto& universe : universes) {
    for (std::size_t i = 0; i < pages; ++i) {
      universe.push_back(static_cast<PageId>(rng.below(PageId{1} << 18)));
    }
  }
  RequestSet rs;
  for (std::size_t j = 0; j < cores; ++j) {
    RequestSequence seq;
    for (std::size_t i = 0; i < length; ++i) {
      // Every core draws mostly from its own pages and sometimes from its
      // neighbour's, so the trace is not disjoint.
      const std::size_t owner = rng.below(6) == 0 ? (j + 1) % cores : j;
      seq.push_back(universes[owner][rng.below(pages)]);
    }
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

TEST(PolicyDifferential, StrategiesOnFlatPoliciesMatchOracleRuns) {
  Rng rng(2024);
  for (const PolicyPair& pair : policy_pairs()) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t p = 2 + static_cast<std::size_t>(trial % 3);
      const std::size_t cache = p + 2 + static_cast<std::size_t>(trial);
      const Time tau = static_cast<Time>(trial % 4);
      const RequestSet rs =
          trial % 3 == 0 ? random_disjoint_workload(rng, p, 6, 150)
          : trial % 3 == 1 ? random_shared_workload(rng, p, 3 * cache, 150)
                           : sparse_workload(rng, p, cache + 3, 150);
      const SimConfig cfg = sim_config(cache, tau);
      const std::string what = pair.name + " trial=" + std::to_string(trial);

      SharedStrategy shared(pair.flat);
      SharedStrategy shared_ref(pair.oracle);
      expect_same_stats(run_both_paths(cfg, rs, shared),
                        simulate(cfg, rs, shared_ref), what + " shared");

      const Partition sizes = even_partition(cache, p);
      StaticPartitionStrategy part(sizes, pair.flat);
      StaticPartitionStrategy part_ref(sizes, pair.oracle);
      expect_same_stats(run_both_paths(cfg, rs, part),
                        simulate(cfg, rs, part_ref), what + " static");

      // A staged schedule shrinks part 0 to one cell mid-run and grows it
      // back: pending shrinks keep parts over budget (policies past their
      // reserved capacity) while reserved cells block evictions.
      Partition squeezed(p, 1);
      squeezed[p - 1] = cache - (p - 1);
      const std::vector<PartitionStage> schedule = {
          {0, sizes}, {40, squeezed}, {160, sizes}};
      StagedPartitionStrategy staged(schedule, pair.flat);
      StagedPartitionStrategy staged_ref(schedule, pair.oracle);
      expect_same_stats(simulate(cfg, rs, staged),
                        simulate(cfg, rs, staged_ref), what + " staged");
    }
  }
}

/// Forwards to `inner` and counts the victim calls that asked the
/// predicate about more than one page: the best-ranked page was reserved
/// and the fallback scan ran.
class FallbackCounter final : public EvictionPolicy {
 public:
  FallbackCounter(std::unique_ptr<EvictionPolicy> inner, int* fallbacks)
      : inner_(std::move(inner)), fallbacks_(fallbacks) {}
  void reset() override { inner_->reset(); }
  void set_capacity(std::size_t cells) override { inner_->set_capacity(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override {
    inner_->on_insert(page, ctx);
  }
  void on_hit(PageId page, const AccessContext& ctx) override {
    inner_->on_hit(page, ctx);
  }
  void on_remove(PageId page) override { inner_->on_remove(page); }
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override {
    int calls = 0;
    const auto counted = [&](PageId page) {
      ++calls;
      return evictable(page);
    };
    const PageId victim = inner_->victim(ctx, counted);
    if (calls > 1) ++*fallbacks_;
    return victim;
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return inner_->contains(page);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<EvictionPolicy> inner_;
  int* fallbacks_;
};

TEST(PolicyDifferential, ReservedBestRankedPageFallsBackToTheEvictableScan) {
  // LFU, LRU-SCAN and MARK rank their pages without the predicate and ask
  // it about the winner alone.  Reserving exactly that page, as a fetch in
  // flight does, must send them to the evictable scan and the oracle's
  // victim; with every page evictable one predicate call settles it.
  Rng rng(606);
  for (const PolicyPair& pair : policy_pairs()) {
    if (pair.name != "lfu" && pair.name != "lru-scan" && pair.name != "mark") {
      continue;
    }
    const auto flat = pair.flat();
    const auto ref = pair.oracle();
    constexpr std::size_t kCells = 6;
    flat->set_capacity(kCells);
    ref->set_capacity(kCells);
    std::vector<PageId> tracked;
    int victims = 0;
    for (Time step = 0; step < 3000; ++step) {
      const PageId page = static_cast<PageId>(rng.below(kCells + 4));
      const AccessContext ctx{0, page, step / 2, 0};  // ties in time
      if (std::find(tracked.begin(), tracked.end(), page) != tracked.end()) {
        flat->on_hit(page, ctx);
        ref->on_hit(page, ctx);
        continue;
      }
      if (tracked.size() == kCells) {
        const std::string what = pair.name + " step=" + std::to_string(step);
        int calls = 0;
        const PageId best = flat->victim(ctx, [&calls](PageId) {
          ++calls;
          return true;
        });
        ASSERT_EQ(calls, 1) << what;
        ASSERT_EQ(best, ref->victim(ctx, [](PageId) { return true; })) << what;
        const auto in_flight = [best](PageId q) { return q != best; };
        const PageId victim = flat->victim(ctx, in_flight);
        ASSERT_EQ(victim, ref->victim(ctx, in_flight)) << what;
        ASSERT_NE(victim, best) << what;
        ASSERT_NE(victim, kInvalidPage) << what;
        ++victims;
        flat->on_remove(victim);
        ref->on_remove(victim);
        std::erase(tracked, victim);
      }
      flat->on_insert(page, ctx);
      ref->on_insert(page, ctx);
      tracked.push_back(page);
    }
    EXPECT_GT(victims, 500) << pair.name;
  }

  // Inside a shared LFU run the page just faulted in holds one use, so it
  // often ranks first while its fetch is still in flight: same RunStats as
  // the oracle policy, with the fallback taken.
  for (const PolicyPair& pair : policy_pairs()) {
    if (pair.name != "lfu") continue;
    int fallbacks = 0;
    SharedStrategy shared([&pair, &fallbacks] {
      return std::make_unique<FallbackCounter>(pair.flat(), &fallbacks);
    });
    SharedStrategy shared_ref(pair.oracle);
    const RequestSet rs = random_shared_workload(rng, 4, 12, 300);
    const SimConfig cfg = sim_config(6, 3);
    expect_same_stats(simulate(cfg, rs, shared), simulate(cfg, rs, shared_ref),
                      "lfu in flight");
    EXPECT_GT(fallbacks, 0);
  }
}

TEST(PolicyDifferential, StreamedRunsGrowOwnerTablesOnFirstSight) {
  // run_stream gives the strategy no materialized set, so the owner tables
  // and policies start empty and grow as pages arrive.
  Rng rng(99);
  const RequestSet rs = sparse_workload(rng, 3, 7, 200);
  const SimConfig cfg = sim_config(7, 2);
  for (const PolicyPair& pair : policy_pairs()) {
    StaticPartitionStrategy part({2, 2, 3}, pair.flat);
    StaticPartitionStrategy part_ref({2, 2, 3}, pair.oracle);
    Simulator sim(cfg);
    FixedStream stream(rs);
    FixedStream stream_ref(rs);
    expect_same_stats(sim.run_stream(stream, part),
                      sim.run_stream(stream_ref, part_ref), pair.name);
  }
}

TEST(PolicyDifferential, Lemma3MatchesMapBasedController) {
  Rng rng(31337);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t p = 1 + static_cast<std::size_t>(trial % 4);
    const std::size_t cache = p + static_cast<std::size_t>(trial % 5) + 1;
    const Time tau = static_cast<Time>(trial % 3) * 2;
    const RequestSet rs =
        trial % 2 == 0 ? random_disjoint_workload(rng, p, 5, 200)
                       : sparse_workload(rng, p, cache + 2, 200);
    const SimConfig cfg = sim_config(cache, tau);
    Lemma3DynamicPartition flat;
    oracle::Lemma3DynamicPartition ref;
    const std::string what = "trial=" + std::to_string(trial);
    expect_same_stats(simulate(cfg, rs, flat), simulate(cfg, rs, ref), what);
    EXPECT_EQ(flat.sizes(), ref.sizes()) << what;
    EXPECT_EQ(flat.partition_changes(), ref.partition_changes()) << what;
  }
}

// ---------------------------------------------------------------------------
// Memory: per-part storage is O(part size); the only page-indexed table is
// the strategy's owner table.
// ---------------------------------------------------------------------------

TEST(PolicyMemory, SixteenPartStaticPartitionKeepsOnePageTable) {
  ASSERT_TRUE(sentry::instrumentation_active());  // else bytes read 0
  constexpr std::size_t kParts = 16;
  constexpr PageId kPageBound = PageId{1} << 20;
  RequestSet rs;
  for (std::size_t j = 0; j < kParts; ++j) {
    // Core j cycles over 5 pages at the top of its 2^16-page block, so the
    // largest page id is 2^20 - 1 and every part of 2 cells keeps faulting.
    RequestSequence seq;
    const PageId top = static_cast<PageId>((j + 1) << 16) - 1;
    for (int i = 0; i < 60; ++i) {
      seq.push_back(top - static_cast<PageId>(i % 5));
    }
    rs.add_sequence(std::move(seq));
  }
  ASSERT_EQ(rs.page_bound(), kPageBound);
  SimConfig cfg = sim_config(2 * kParts, 1);
  cfg.record_fault_timeline = false;
  for (const std::string& policy : online_policy_names()) {
    StaticPartitionStrategy strategy(Partition(kParts, 2),
                                     make_policy_factory(policy));
    // The object's run (Simulator::run), so the per-part policies allocate:
    // simulate() would take the stamp kernel for most of these policies.
    Simulator sim(cfg);
    const std::uint64_t before = sentry::thread_alloc_stats().bytes_allocated;
    const RunStats stats = sim.run(rs, strategy);
    const std::uint64_t bytes =
        sentry::thread_alloc_stats().bytes_allocated - before;
    EXPECT_GT(stats.total_faults(), kParts * 20) << policy;
    // The engine's page index and presence table plus the owner table come
    // to about 9 bytes per page id; one 4-byte page table per part would
    // add 64 more.
    EXPECT_LT(bytes, std::uint64_t{16} * kPageBound) << policy;
  }
}

TEST(PageIndex, EraseKeepsProbeRunsReachable) {
  // Keys that share a home bucket form one probe run; erasing from its
  // middle must keep every later key findable (backward shift).
  PageIndex index;
  index.reserve(9);
  std::vector<PageId> keys;
  for (PageId k = 0; k < 8; ++k) keys.push_back(k << 28 | k);
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index.insert(keys[i], i));
  }
  ASSERT_FALSE(index.insert(keys[3], 99));
  Rng rng(8);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t i = static_cast<std::uint32_t>(rng.below(keys.size()));
    if (index.find(keys[i]) != PageIndex::kAbsent) {
      EXPECT_EQ(index.erase(keys[i]), i);
      EXPECT_EQ(index.erase(keys[i]), PageIndex::kAbsent);
    } else {
      ASSERT_TRUE(index.insert(keys[i], i));
    }
    for (std::uint32_t k = 0; k < keys.size(); ++k) {
      const std::uint32_t found = index.find(keys[k]);
      ASSERT_TRUE(found == k || found == PageIndex::kAbsent) << round;
    }
  }
}

}  // namespace
}  // namespace mcp
