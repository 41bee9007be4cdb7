// Exhaustive small-scope checks of the offline solvers: every canonical
// disjoint instance up to a bound, instead of a seeded sample, so a bug that
// needs one particular interleaving cannot pass by missing it.  A request
// sequence is canonical when its pages are numbered in order of first use
// (a restricted-growth string); every relabelling of its pages within the
// core behaves the same.  On each instance:
//
//   - solve_ftf = exhaustive_ftf (the simulator-driven search) = the
//     Theorem-5 restricted search (VictimRule::kFitfPerSequence), and the
//     FTF schedule replays through the simulator to the optimum;
//   - OPT <= S_LRU and OPT <= S_FIFO;
//   - with a deadline past the end, PIF is feasible at the per-core faults
//     of the optimal schedule and infeasible for every bound vector that
//     sums to OPT - 1.
//
// Scope: p = 2 with 1-4 requests over at most 3 pages per core (4,356
// instances) and p = 3 with 1-3 requests (4,608), each for K from p to
// p + 2 (with fewer cells than cores the first step has no successor) and
// tau in {0, 1, 2}.  Checked and sanitizer builds run 1-3 requests at p = 2
// (576 instances) and 1-2 at p = 3 (243).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "offline/exhaustive.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"

namespace mcp {
namespace {

#if defined(MCP_CHECKED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kReducedScope = true;
#else
constexpr bool kReducedScope = false;
#endif

constexpr PageId kPagesPerCore = 3;

/// Every restricted-growth string of 1..max_len symbols over at most
/// kPagesPerCore symbols, as pages base, base + 1, ...
std::vector<RequestSequence> canonical_sequences(std::size_t max_len,
                                                 PageId base) {
  std::vector<RequestSequence> out;
  std::vector<PageId> pages;
  const std::function<void(PageId)> extend = [&](PageId used) {
    if (!pages.empty()) out.emplace_back(pages);
    if (pages.size() == max_len) return;
    for (PageId s = 0; s <= used && s < kPagesPerCore; ++s) {
      pages.push_back(base + s);
      extend(std::max<PageId>(used, s + 1));
      pages.pop_back();
    }
  };
  extend(0);
  return out;
}

/// Every vector of `p` non-negative bounds summing to `total`.
std::vector<std::vector<Count>> compositions(std::size_t p, Count total) {
  std::vector<std::vector<Count>> out;
  std::vector<Count> bounds(p, 0);
  const std::function<void(std::size_t, Count)> fill = [&](std::size_t j,
                                                           Count left) {
    if (j + 1 == p) {
      bounds[j] = left;
      out.push_back(bounds);
      return;
    }
    for (Count b = 0; b <= left; ++b) {
      bounds[j] = b;
      fill(j + 1, left - b);
    }
  };
  fill(0, total);
  return out;
}

Count shared_faults(const OfflineInstance& inst, const char* policy) {
  SharedStrategy strategy(make_policy_factory(policy));
  return simulate(inst.sim_config(), inst.requests, strategy).total_faults();
}

/// Runs every check on one instance; returns false after the first failed
/// one so a broken solver reports one instance, not thousands.
bool check_instance(const OfflineInstance& inst) {
  const auto label = [&inst] {
    return ::testing::Message() << "K=" << inst.cache_size
                                << " tau=" << inst.tau << " "
                                << inst.requests.describe();
  };
  FtfOptions options;
  options.build_schedule = true;
  const FtfResult ftf = solve_ftf(inst, options);
  const Count opt = ftf.min_faults;
  FtfOptions restricted;
  restricted.victim_rule = VictimRule::kFitfPerSequence;
  const RunStats replay = replay_schedule(inst, ftf.schedule);
  const Count lru = shared_faults(inst, "lru");
  const Count fifo = shared_faults(inst, "fifo");
  bool ok = true;
  const auto expect = [&](bool holds, const char* what) {
    if (!holds) {
      ADD_FAILURE() << what << " (OPT=" << opt << ") " << label();
      ok = false;
    }
  };
  expect(exhaustive_ftf(inst).min_faults == opt,
         "exhaustive_ftf disagrees with solve_ftf");
  expect(solve_ftf(inst, restricted).min_faults == opt,
         "the Theorem-5 restricted search disagrees with solve_ftf");
  expect(replay.total_faults() == opt,
         "the FTF schedule does not replay to the optimum");
  expect(opt <= lru, "S_LRU beats the optimum");
  expect(opt <= fifo, "S_FIFO beats the optimum");
  if (!ok) return false;

  // Every core is done by n * (tau + 1) steps, so this deadline counts every
  // fault of every schedule.
  std::size_t longest = 0;
  for (CoreId j = 0; j < inst.requests.num_cores(); ++j) {
    longest = std::max(longest, inst.requests.sequence(j).size());
  }
  PifInstance pif;
  pif.base = inst;
  pif.deadline = static_cast<Time>(longest) * (inst.tau + 1) + 1;
  for (CoreId j = 0; j < inst.requests.num_cores(); ++j) {
    pif.bounds.push_back(replay.core(j).faults);
  }
  expect(solve_pif(pif).feasible,
         "PIF is infeasible at the optimal schedule's per-core faults");
  if (opt > 0) {
    for (const std::vector<Count>& bounds :
         compositions(inst.requests.num_cores(), opt - 1)) {
      pif.bounds = bounds;
      if (solve_pif(pif).feasible) {
        expect(false, "PIF is feasible with bounds summing to OPT - 1");
        break;
      }
    }
  }
  return ok;
}

/// Checks every instance whose cores run the given canonical sequences;
/// returns the number of instances checked.
std::size_t check_scope(std::size_t p, std::size_t max_len) {
  std::vector<std::vector<RequestSequence>> per_core;
  for (std::size_t j = 0; j < p; ++j) {
    per_core.push_back(
        canonical_sequences(max_len, static_cast<PageId>(j) * kPagesPerCore));
  }
  std::size_t checked = 0;
  std::vector<std::size_t> pick(p, 0);
  for (;;) {
    OfflineInstance inst;
    for (std::size_t j = 0; j < p; ++j) {
      inst.requests.add_sequence(per_core[j][pick[j]]);
    }
    for (std::size_t k = p; k <= p + 2; ++k) {
      for (Time tau = 0; tau <= 2; ++tau) {
        inst.cache_size = k;
        inst.tau = tau;
        ++checked;
        if (!check_instance(inst)) return checked;
      }
    }
    std::size_t j = 0;
    while (j < p && ++pick[j] == per_core[j].size()) pick[j++] = 0;
    if (j == p) return checked;
  }
}

TEST(OfflineSmallScope, CanonicalSequencesAreRestrictedGrowthStrings) {
  // 1 + 2 + 5 + 14: Bell numbers capped at three pages (a b c d is gone).
  EXPECT_EQ(canonical_sequences(4, 0).size(), 22u);
  EXPECT_EQ(canonical_sequences(3, 0).size(), 8u);
  const std::vector<RequestSequence> shifted = canonical_sequences(2, 6);
  ASSERT_EQ(shifted.size(), 3u);
  EXPECT_EQ(shifted[0], (RequestSequence{6}));
  EXPECT_EQ(shifted[1], (RequestSequence{6, 6}));
  EXPECT_EQ(shifted[2], (RequestSequence{6, 7}));
  EXPECT_EQ(compositions(3, 2).size(), 6u);
}

TEST(OfflineSmallScope, TwoCoresUpToFourRequests) {
  if (kReducedScope) {
    EXPECT_EQ(check_scope(2, 3), 8u * 8u * 9u);
  } else {
    EXPECT_EQ(check_scope(2, 4), 22u * 22u * 9u);
  }
}

TEST(OfflineSmallScope, ThreeCoresUpToThreeRequests) {
  if (kReducedScope) {
    EXPECT_EQ(check_scope(3, 2), 3u * 3u * 3u * 9u);
  } else {
    EXPECT_EQ(check_scope(3, 3), 8u * 8u * 8u * 9u);
  }
}

}  // namespace
}  // namespace mcp
