// Tests for trace analysis (workload/analysis.hpp): stack-distance
// histograms and the Mattson one-pass LRU miss-ratio curve, cross-checked
// against the direct LRU runner.
#include "workload/analysis.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "workload/workload.hpp"

namespace mcp {
namespace {

TEST(StackDistance, HandComputedExample) {
  // 1 2 1 3 2 1:
  //   1@0 cold; 2@1 cold; 1@2 d=1 (saw 2); 3@3 cold; 2@4 d=2 (1,3);
  //   1@5 d=2 (3,2).
  const RequestSequence seq{1, 2, 1, 3, 2, 1};
  const StackDistanceHistogram hist(seq);
  EXPECT_EQ(hist.cold(), 3u);
  EXPECT_EQ(hist.at(0), 0u);
  EXPECT_EQ(hist.at(1), 1u);
  EXPECT_EQ(hist.at(2), 2u);
  EXPECT_EQ(hist.total(), 6u);
  EXPECT_EQ(hist.distinct(), 3u);
}

TEST(StackDistance, ImmediateRepeatIsDistanceZero) {
  const RequestSequence seq{5, 5, 5};
  const StackDistanceHistogram hist(seq);
  EXPECT_EQ(hist.cold(), 1u);
  EXPECT_EQ(hist.at(0), 2u);
  EXPECT_EQ(hist.lru_faults(1), 1u);  // one cell suffices
}

TEST(StackDistance, EmptySequence) {
  const StackDistanceHistogram hist(RequestSequence{});
  EXPECT_EQ(hist.cold(), 0u);
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.lru_faults(4), 0u);
}

TEST(StackDistance, CurveMonotoneAndBounded) {
  Rng rng(42);
  RequestSequence seq;
  for (int i = 0; i < 500; ++i) seq.push_back(static_cast<PageId>(rng.below(20)));
  const StackDistanceHistogram hist(seq);
  const std::vector<Count> curve = hist.lru_curve(22);
  EXPECT_EQ(curve[0], seq.size());  // zero cells: everything faults
  for (std::size_t k = 1; k < curve.size(); ++k) {
    EXPECT_LE(curve[k], curve[k - 1]) << "k=" << k;
  }
  // Beyond the distinct count only compulsory misses remain.
  EXPECT_EQ(curve[20], hist.cold());
  EXPECT_EQ(curve[22], hist.cold());
}

TEST(StackDistance, MatchesDirectLruRunner) {
  // The headline property: Mattson's one-pass curve equals running LRU at
  // every cache size, over randomized traces of several shapes.
  Rng rng(7);
  for (AccessPattern pattern :
       {AccessPattern::kUniform, AccessPattern::kZipf,
        AccessPattern::kWorkingSet, AccessPattern::kLoop,
        AccessPattern::kScan}) {
    CoreWorkload core;
    core.pattern = pattern;
    core.num_pages = 16;
    core.length = 400;
    core.working_set = 5;
    core.loop_length = 7;
    Rng gen = rng.fork(static_cast<std::uint64_t>(pattern));
    const RequestSequence seq = generate_sequence(core, 0, gen);
    const StackDistanceHistogram hist(seq);
    for (std::size_t k = 0; k <= 18; ++k) {
      EXPECT_EQ(hist.lru_faults(k),
                single_core_policy_faults(seq, k, make_policy_factory("lru")))
          << to_string(pattern) << " k=" << k;
    }
  }
}

TEST(StackDistance, DominatedByBelady) {
  Rng rng(9);
  RequestSequence seq;
  for (int i = 0; i < 300; ++i) seq.push_back(static_cast<PageId>(rng.below(12)));
  const StackDistanceHistogram hist(seq);
  for (std::size_t k = 1; k <= 12; ++k) {
    EXPECT_GE(hist.lru_faults(k), belady_faults(seq, k)) << "k=" << k;
  }
}

}  // namespace
}  // namespace mcp
