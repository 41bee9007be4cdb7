// Differential tests pinning the packed offline searches (packed_space.hpp,
// packed_state.hpp) to the heap-backed test oracle (reference_offline.hpp):
// FTF, PIF and makespan run on a seeded grid over p x K x tau x victim rule,
// and every observable the two implementations share must agree.  Schedules
// themselves may differ (the bucket queue and the binary heap break ties
// differently), so schedule agreement is checked semantically — replay
// through the simulator must charge exactly min_faults either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <vector>

#include "core/error.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/makespan_solver.hpp"
#include "offline/packed_space.hpp"
#include "offline/packed_state.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "reference_offline.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::OfflineState;
using testing::random_disjoint_workload;
using testing::solve_ftf_reference;
using testing::solve_min_makespan_reference;
using testing::solve_pif_reference;
using testing::StepOutcome;
using testing::TransitionSystem;

OfflineInstance make_instance(RequestSet rs, std::size_t k, Time tau) {
  OfflineInstance inst;
  inst.requests = std::move(rs);
  inst.cache_size = k;
  inst.tau = tau;
  return inst;
}

constexpr std::size_t kCores[] = {1, 2, 3};
constexpr std::size_t kCacheSizes[] = {2, 3, 4, 5};
constexpr Time kTaus[] = {1, 2, 5};
constexpr VictimRule kRules[] = {VictimRule::kAllPages,
                                 VictimRule::kFitfPerSequence};

// ---------------------------------------------------------------------------
// Building blocks: interner, pack/unpack, expansion.
// ---------------------------------------------------------------------------

TEST(StateInterner, DedupesAndRoundTrips) {
  StateInterner interner(3);
  const std::uint64_t a[3] = {1, 2, 3};
  const std::uint64_t b[3] = {1, 2, 4};

  const auto [ida, fresh_a] = interner.intern(a);
  EXPECT_TRUE(fresh_a);
  const auto [idb, fresh_b] = interner.intern(b);
  EXPECT_TRUE(fresh_b);
  EXPECT_NE(ida, idb);

  const auto [ida2, fresh_a2] = interner.intern(a);
  EXPECT_FALSE(fresh_a2);
  EXPECT_EQ(ida, ida2);
  EXPECT_EQ(interner.size(), 2u);

  EXPECT_TRUE(std::equal(a, a + 3, interner.state(ida)));
  EXPECT_TRUE(std::equal(b, b + 3, interner.state(idb)));
}

TEST(StateInterner, SurvivesTableGrowth) {
  StateInterner interner(1);
  std::vector<std::uint32_t> ids;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    ids.push_back(interner.intern(&v).first);
  }
  EXPECT_EQ(interner.size(), 1000u);
  for (std::uint64_t v = 0; v < 1000; ++v) {
    EXPECT_EQ(interner.intern(&v).first, ids[v]) << "v=" << v;
    EXPECT_EQ(*interner.state(ids[v]), v) << "v=" << v;
  }
}

TEST(PackedTransitionSystem, PackUnpackRoundTripsReachableStates) {
  Rng rng(777);
  const RequestSet rs = random_disjoint_workload(rng, 3, 3, 6);
  const OfflineInstance inst = make_instance(rs, 3, 2);
  const TransitionSystem ref(inst, VictimRule::kAllPages);
  const PackedTransitionSystem packed(inst, VictimRule::kAllPages);

  std::vector<std::uint64_t> words(packed.state_words());
  // Walk a few expansion levels, round-tripping every state encountered.
  std::vector<OfflineState> frontier = {ref.initial()};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<OfflineState> next;
    for (const OfflineState& state : frontier) {
      testing::pack(packed, state, words.data());
      EXPECT_EQ(testing::unpack(packed, words.data()), state);
      EXPECT_EQ(ref.is_terminal(state), packed.is_terminal(words.data()));
      ref.expand(state, [&next](StepOutcome&& outcome) {
        next.push_back(std::move(outcome.next));
      });
    }
    frontier = std::move(next);
  }
}

/// One emitted outcome of a step, in the oracle's form.
struct Emission {
  OfflineState next;
  std::uint32_t faulted_cores = 0;
  std::vector<PageId> evictions;

  bool operator==(const Emission&) const = default;
};

/// `emitted` without the repeats of an earlier (successor, faulted cores).
std::vector<Emission> first_occurrences(const std::vector<Emission>& emitted) {
  std::vector<Emission> firsts;
  for (const Emission& e : emitted) {
    const bool repeat =
        std::any_of(firsts.begin(), firsts.end(), [&e](const Emission& f) {
          return f.next == e.next && f.faulted_cores == e.faulted_cores;
        });
    if (!repeat) firsts.push_back(e);
  }
  return firsts;
}

/// True iff `sub` is a subsequence of `seq`.
bool is_subsequence(const std::vector<Emission>& sub,
                    const std::vector<Emission>& seq) {
  std::size_t matched = 0;
  for (const Emission& e : seq) {
    if (matched < sub.size() && sub[matched] == e) ++matched;
  }
  return matched == sub.size();
}

TEST(PackedTransitionSystem, ExpansionEmitsTheOraclesFirstOccurrences) {
  // Under kAllPages the packed kernel skips branches that repeat an earlier
  // outcome of the same step (packed_space.hpp): what it emits must be a
  // subsequence of the oracle's emission, and the two must be equal,
  // evictions included, once every repeat of an earlier (successor, faulted
  // cores) is dropped.  Under kFitfPerSequence it emits every branch.  Three
  // cores reach steps where three cores evict; each instance is walked
  // breadth-first over its distinct reachable states.  K = 2 < p leaves the
  // first step without a successor, which both engines must agree on too.
  constexpr std::size_t kStatesPerInstance = 1000;
  Rng rng(4242);
  for (VictimRule rule : kRules) {
    std::size_t three_eviction_steps = 0;
    std::size_t skipped = 0;
    for (Time tau = 0; tau <= 2; ++tau) {
      for (std::size_t k = 2; k <= 5; ++k) {
        for (int trial = 0; trial < 3; ++trial) {
          const RequestSet rs = random_disjoint_workload(rng, 3, 3, 8);
          const OfflineInstance inst = make_instance(rs, k, tau);
          const TransitionSystem ref(inst, rule);
          const PackedTransitionSystem packed(inst, rule);
          PackedTransitionSystem::StepScratch scratch;
          std::vector<std::uint64_t> words(packed.state_words());
          const auto label = [&] {
            return ::testing::Message()
                   << "k=" << k << " tau=" << tau << " trial=" << trial
                   << " rule="
                   << (rule == VictimRule::kAllPages ? "all" : "fitf");
          };

          std::unordered_set<OfflineState, testing::OfflineStateHash> seen = {
              ref.initial()};
          std::deque<OfflineState> queue = {ref.initial()};
          for (std::size_t visited = 0;
               !queue.empty() && visited < kStatesPerInstance; ++visited) {
            const OfflineState state = std::move(queue.front());
            queue.pop_front();
            std::vector<Emission> oracle;
            ref.expand(state, [&oracle](StepOutcome&& outcome) {
              oracle.push_back({std::move(outcome.next), outcome.faulted_cores,
                                std::move(outcome.evictions)});
            });
            std::vector<Emission> kernel;
            testing::pack(packed, state, words.data());
            packed.expand(words.data(), scratch,
                          [&](const PackedOutcome& outcome) {
              kernel.push_back({testing::unpack(packed, outcome.next),
                                outcome.faulted_cores,
                                {outcome.evictions.begin(),
                                 outcome.evictions.end()}});
            });
            ASSERT_TRUE(is_subsequence(kernel, oracle)) << label();
            ASSERT_EQ(first_occurrences(kernel), first_occurrences(oracle))
                << label();
            if (rule == VictimRule::kFitfPerSequence) {
              ASSERT_EQ(kernel, oracle) << label();
            }
            skipped += oracle.size() - kernel.size();

            bool three_evictions = false;
            for (Emission& e : oracle) {
              three_evictions |=
                  std::count_if(e.evictions.begin(), e.evictions.end(),
                                [](PageId v) { return v != kInvalidPage; }) ==
                  3;
              if (seen.insert(e.next).second) {
                queue.push_back(std::move(e.next));
              }
            }
            three_eviction_steps += three_evictions ? 1 : 0;
          }
        }
      }
    }
    // Without steps where three cores evict, the check proves little.
    EXPECT_GT(three_eviction_steps, 0u)
        << (rule == VictimRule::kAllPages ? "all" : "fitf");
    if (rule == VictimRule::kAllPages) {
      EXPECT_GT(skipped, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Solver grids: packed searches vs the oracle on seeded instances.
// ---------------------------------------------------------------------------

TEST(OfflineDifferential, FtfGridAgreesAcrossEngines) {
  Rng rng(20260807);
  for (std::size_t p : kCores) {
    for (std::size_t k : kCacheSizes) {
      for (Time tau : kTaus) {
        for (VictimRule rule : kRules) {
          const RequestSet rs = random_disjoint_workload(rng, p, 3, 6);
          const OfflineInstance inst = make_instance(rs, k, tau);
          ASSERT_TRUE(PackedTransitionSystem::supports(inst));

          FtfOptions opts;
          opts.victim_rule = rule;
          opts.build_schedule = true;

          if (k < p) {
            // With fewer cells than cores every first-step branch dies (all
            // cells are locked by in-flight fetches when the last core
            // faults): no terminal is reachable.  Both engines must agree on
            // that verdict too.
            EXPECT_THROW((void)solve_ftf(inst, opts), ModelError);
            EXPECT_THROW((void)solve_ftf_reference(inst, opts), ModelError);
            continue;
          }

          const FtfResult packed = solve_ftf(inst, opts);
          const FtfResult ref = solve_ftf_reference(inst, opts);
          const auto label = [&] {
            return ::testing::Message()
                   << "p=" << p << " k=" << k << " tau=" << tau
                   << " rule=" << (rule == VictimRule::kAllPages ? "all" : "fitf");
          };
          EXPECT_EQ(packed.min_faults, ref.min_faults) << label();
          // Schedules may differ (tie-breaking), but both must replay to the
          // optimum.
          EXPECT_EQ(replay_schedule(inst, packed.schedule).total_faults(),
                    packed.min_faults)
              << label();
          EXPECT_EQ(replay_schedule(inst, ref.schedule).total_faults(),
                    ref.min_faults)
              << label();
        }
      }
    }
  }
}

TEST(OfflineDifferential, PifGridAgreesAcrossEngines) {
  Rng rng(1337);
  int feasible_seen = 0;
  int infeasible_seen = 0;
  for (std::size_t p : kCores) {
    for (std::size_t k : kCacheSizes) {
      for (Time tau : kTaus) {
        for (VictimRule rule : kRules) {
          const RequestSet rs = random_disjoint_workload(rng, p, 3, 6);
          PifInstance inst;
          inst.base = make_instance(rs, k, tau);
          inst.deadline = 4 + rng.below(12);
          for (std::size_t j = 0; j < p; ++j) {
            inst.bounds.push_back(rng.below(5));
          }
          ASSERT_TRUE(PackedTransitionSystem::supports(inst.base));

          PifOptions opts;
          opts.victim_rule = rule;
          opts.build_schedule = true;

          const PifResult packed = solve_pif(inst, opts);
          const PifResult ref = solve_pif_reference(inst, opts);
          const auto label = [&] {
            return ::testing::Message()
                   << "p=" << p << " k=" << k << " tau=" << tau
                   << " rule=" << (rule == VictimRule::kAllPages ? "all" : "fitf")
                   << " deadline=" << inst.deadline;
          };
          EXPECT_EQ(packed.feasible, ref.feasible) << label();
          EXPECT_EQ(packed.decided_at, ref.decided_at) << label();
          // Pareto fronts are sets of minimal vectors — identical between
          // engines regardless of insertion order — so widths match too.
          EXPECT_EQ(packed.peak_layer_width, ref.peak_layer_width) << label();
          EXPECT_EQ(packed.states_expanded, ref.states_expanded) << label();
          if (packed.feasible) {
            ++feasible_seen;
            EXPECT_TRUE(verify_pif_witness(inst, packed.schedule)) << label();
            EXPECT_TRUE(verify_pif_witness(inst, ref.schedule)) << label();
          } else {
            ++infeasible_seen;
          }
        }
      }
    }
  }
  // The grid must exercise both verdicts or it proves too little.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}

TEST(OfflineDifferential, MakespanMatchesReferenceAcrossGrid) {
  // Both searches build the same per-layer state sets, so the optimum and
  // both search counters must be identical, not merely equivalent.
  Rng rng(271828);
  for (std::size_t p : kCores) {
    for (std::size_t k : kCacheSizes) {
      for (Time tau : kTaus) {
        for (VictimRule rule : kRules) {
          const RequestSet rs = random_disjoint_workload(rng, p, 3, 6);
          const OfflineInstance inst = make_instance(rs, k, tau);
          MakespanOptions opts;
          opts.victim_rule = rule;
          const auto label = [&] {
            return ::testing::Message()
                   << "p=" << p << " k=" << k << " tau=" << tau
                   << " rule=" << (rule == VictimRule::kAllPages ? "all" : "fitf");
          };

          if (k < p) {
            // Every first-step branch dies, as in the FTF grid: both
            // searches must report the dead end.
            EXPECT_THROW((void)solve_min_makespan(inst, opts), ModelError)
                << label();
            EXPECT_THROW((void)solve_min_makespan_reference(inst, opts),
                         ModelError)
                << label();
            continue;
          }

          const MakespanResult packed = solve_min_makespan(inst, opts);
          const MakespanResult ref = solve_min_makespan_reference(inst, opts);
          EXPECT_EQ(packed.min_makespan, ref.min_makespan) << label();
          EXPECT_EQ(packed.states_expanded, ref.states_expanded) << label();
          EXPECT_EQ(packed.peak_layer_width, ref.peak_layer_width) << label();
        }
      }
    }
  }
}

TEST(OfflineDifferential, FtfStateLimitReportsCounters) {
  Rng rng(5150);
  const RequestSet rs = random_disjoint_workload(rng, 2, 3, 8);
  const OfflineInstance inst = make_instance(rs, 2, 2);
  FtfOptions opts;
  opts.max_states = 5;
  try {
    (void)solve_ftf(inst, opts);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("states_expanded="), std::string::npos) << what;
    EXPECT_NE(what.find("states_stored="), std::string::npos) << what;
    // The interner knows its memory story: the abort message alone must be
    // enough to size the retry (budget, reserve hint, or limit).
    EXPECT_NE(what.find("arena_bytes="), std::string::npos) << what;
    EXPECT_NE(what.find("peak_bytes_in_ram="), std::string::npos) << what;
    EXPECT_NE(what.find("table_load_factor="), std::string::npos) << what;
    EXPECT_NE(what.find("bytes_spilled="), std::string::npos) << what;
  }
}

TEST(OfflineDifferential, UnsupportedInstanceIsAnInputError) {
  // Page ids must stay below the 128-id bitset universe.  The bound is on
  // page ids, not on distinct pages: the 2-core instance below uses only
  // four distinct pages, but one of them has id 200.  Every solver refuses both
  // instances up front instead of running some slower search.
  RequestSequence wide;
  for (PageId page = 0; page < 140; ++page) wide.push_back(page);
  RequestSet wide_rs;
  wide_rs.add_sequence(std::move(wide));
  RequestSet sparse_rs;
  sparse_rs.add_sequence(RequestSequence{1, 2, 1});
  sparse_rs.add_sequence(RequestSequence{200, 3, 200});
  ASSERT_EQ(sparse_rs.total_requests(), 6u);

  for (const RequestSet* rs : {&wide_rs, &sparse_rs}) {
    const OfflineInstance inst = make_instance(*rs, 2, 1);
    ASSERT_FALSE(PackedTransitionSystem::supports(inst));
    PifInstance pif;
    pif.base = inst;
    pif.deadline = 4;
    pif.bounds.assign(rs->num_cores(), 2);
    const std::string largest = std::to_string(rs->page_bound() - 1);
    const auto expect_page_id_error = [&largest](const char* solver,
                                                 const auto& solve) {
      try {
        solve();
        ADD_FAILURE() << solver << ": expected InputError";
      } catch (const InputError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("page-id bound 128"), std::string::npos)
            << solver << ": " << what;
        EXPECT_NE(what.find("page id " + largest), std::string::npos)
            << solver << ": " << what;
      }
    };
    expect_page_id_error("solve_ftf", [&] { (void)solve_ftf(inst); });
    expect_page_id_error("solve_pif", [&] { (void)solve_pif(pif); });
    expect_page_id_error("solve_min_makespan",
                         [&] { (void)solve_min_makespan(inst); });
  }
}

TEST(PackedTransitionSystem, ConstructorNamesTheViolatedBound) {
  RequestSet one_core;
  one_core.add_sequence(RequestSequence{1, 2, 1});
  const OfflineInstance slow = make_instance(one_core, 2, 256);
  try {
    (void)PackedTransitionSystem(slow, VictimRule::kAllPages);
    ADD_FAILURE() << "expected InputError for tau 256";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("tau 256 exceeds the tau bound 255"),
              std::string::npos)
        << e.what();
  }

  RequestSet many;
  for (PageId core = 0; core < 33; ++core) {
    many.add_sequence(RequestSequence{core});
  }
  const OfflineInstance wide = make_instance(many, 40, 1);
  try {
    (void)PackedTransitionSystem(wide, VictimRule::kAllPages);
    ADD_FAILURE() << "expected InputError for 33 cores";
  } catch (const InputError& e) {
    EXPECT_NE(
        std::string(e.what()).find("33 cores exceed the core-count bound 32"),
        std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mcp
