// Differential tests for the single-pass Mattson LRU fault-curve kernel
// (policies/mattson.hpp): every curve cell must equal the per-k
// single-core LRU run it replaces, on random, skewed and adversarial
// sequences, including capacities at and beyond the distinct-page count;
// and the bit-marked scan's distances and histograms must equal the
// position-Fenwick scan it replaced (reference_mattson.hpp) request for
// request, across word boundaries, long cycles and sparse page ids.
#include "policies/mattson.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "adversary/adversary.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "reference_mattson.hpp"
#include "service/wire_format.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"
#include "workload/analysis.hpp"
#include "workload/workload.hpp"

namespace mcp {
namespace {

/// Checks curve[k] == single_core_policy_faults(seq, k, LRU) for k = 0..max_k.
void expect_matches_per_k(const RequestSequence& seq, std::size_t max_k,
                          const std::string& label) {
  const PolicyFactory lru = make_policy_factory("lru");
  const std::vector<Count> curve = lru_fault_curve(seq, max_k);
  ASSERT_EQ(curve.size(), max_k + 1) << label;
  for (std::size_t k = 0; k <= max_k; ++k) {
    EXPECT_EQ(curve[k], single_core_policy_faults(seq, k, lru))
        << label << " k=" << k;
  }
}

std::size_t distinct_pages(const RequestSequence& seq) {
  return std::unordered_set<PageId>(seq.begin(), seq.end()).size();
}

/// Checks the scan's per-request distances and histogram against the
/// position-Fenwick oracle, and that the histogram is exactly sized.
void expect_matches_oracle(const RequestSequence& seq,
                           const std::string& label) {
  EXPECT_EQ(stack_distances(seq), testing::reference_stack_distances(seq))
      << label;
  const std::vector<Count> hist = stack_distance_histogram(seq);
  EXPECT_EQ(hist, testing::reference_stack_distance_histogram(seq)) << label;
  EXPECT_EQ(hist.capacity(), hist.size()) << label;
}

TEST(MattsonKernel, TinySequencesByHand) {
  // a b a b: distances 0 0 2 2 -> f(0)=4, f(1)=4, f(2)=2, f(3)=2.
  const RequestSequence seq = {1, 2, 1, 2};
  const std::vector<Count> curve = lru_fault_curve(seq, 3);
  EXPECT_EQ(curve, (std::vector<Count>{4, 4, 2, 2}));
  // Immediate repeat has distance 1 (hits for any k >= 1).
  const std::vector<Count> rep = lru_fault_curve({7, 7, 7}, 2);
  EXPECT_EQ(rep, (std::vector<Count>{3, 1, 1}));
  // Empty sequence: all-zero curve.
  EXPECT_EQ(lru_fault_curve({}, 2), (std::vector<Count>{0, 0, 0}));
}

TEST(MattsonKernel, StackDistancesDefinition) {
  // seq:      5 6 7 5 5 6
  // distance: 0 0 0 3 1 3
  EXPECT_EQ(stack_distances({5, 6, 7, 5, 5, 6}),
            (std::vector<std::size_t>{0, 0, 0, 3, 1, 3}));
  // The histogram counts the same distances, one bucket per distinct page.
  EXPECT_EQ(stack_distance_histogram({5, 6, 7, 5, 5, 6}),
            (std::vector<Count>{3, 1, 0, 2}));
  EXPECT_EQ(stack_distance_histogram({}), (std::vector<Count>{0}));
}

TEST(MattsonKernel, ScanMatchesOracleAcrossPatternsAndWordBoundaries) {
  // Lengths around the 64-position mark words, on every locality model,
  // with disjoint and shared page ranges.  200 pages puts reuse distances
  // past one word, so far reuses walk the word tree.
  for (const AccessPattern pattern :
       {AccessPattern::kUniform, AccessPattern::kZipf,
        AccessPattern::kWorkingSet, AccessPattern::kScan,
        AccessPattern::kLoop, AccessPattern::kMarkov}) {
    for (const bool disjoint : {true, false}) {
      for (const std::size_t length :
           {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
            std::size_t{65}, std::size_t{2048}, std::size_t{20000}}) {
        CoreWorkload core;
        core.pattern = pattern;
        core.num_pages = 200;
        core.length = length;
        const RequestSet rs =
            make_workload(homogeneous_spec(2, core, disjoint, 31 + length));
        for (CoreId j = 0; j < rs.num_cores(); ++j) {
          expect_matches_oracle(
              rs.sequence(j), to_string(pattern) +
                                  (disjoint ? " disjoint" : " shared") +
                                  " n=" + std::to_string(length) +
                                  " core " + std::to_string(j));
        }
      }
    }
  }
}

TEST(MattsonKernel, ScanMatchesOracleOnCyclesRepeatsAndSparseIds) {
  // A cycle over 10^5 pages: every reuse is at distance 10^5, across
  // ~1563 words.
  constexpr PageId kCycle = 100000;
  RequestSequence cycle;
  for (int pass = 0; pass < 2; ++pass) {
    for (PageId page = 0; page < kCycle; ++page) cycle.push_back(page);
  }
  expect_matches_oracle(cycle, "cycle");
  const std::vector<Count> cycle_hist = stack_distance_histogram(cycle);
  ASSERT_EQ(cycle_hist.size(), kCycle + 1);
  EXPECT_EQ(cycle_hist[0], kCycle);
  EXPECT_EQ(cycle_hist[kCycle], kCycle);

  // One page over and over: one cold access, then distance 1.
  const RequestSequence repeat(std::vector<PageId>(1000, 9));
  expect_matches_oracle(repeat, "repeat");
  EXPECT_EQ(stack_distance_histogram(repeat), (std::vector<Count>{1, 999}));

  // Sparse ids up to the largest a wire session admits.
  Rng rng(0x5A55);
  std::vector<PageId> ids = {0, wire::kMaxWirePageId - 1};
  for (int i = 0; i < 70; ++i) {
    ids.push_back(static_cast<PageId>(rng.below(wire::kMaxWirePageId)));
  }
  RequestSequence sparse;
  for (int i = 0; i < 3000; ++i) sparse.push_back(ids[rng.below(ids.size())]);
  sparse.push_back(wire::kMaxWirePageId - 1);
  expect_matches_oracle(sparse, "sparse");
}

TEST(MattsonKernel, CurveFromHistogramIsTheScanCurve) {
  Rng rng(77);
  RequestSequence seq;
  for (std::size_t i = 0; i < 500; ++i) {
    seq.push_back(static_cast<PageId>(rng.below(30)));
  }
  const std::vector<Count> hist = stack_distance_histogram(seq);
  // max_k 0, 1, inside, at and past the distinct-page count.
  for (const std::size_t max_k :
       {std::size_t{0}, std::size_t{1}, std::size_t{12}, hist.size() - 1,
        hist.size() + 40}) {
    EXPECT_EQ(lru_fault_curve_from_histogram(hist, max_k),
              lru_fault_curve(seq, max_k))
        << "max_k=" << max_k;
  }
  EXPECT_EQ(lru_fault_curve_from_histogram({0}, 3),
            (std::vector<Count>{0, 0, 0, 0}));
}

TEST(MattsonKernel, MatchesPerKOnRandomSequences) {
  Rng rng(20260807);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t universe = 3 + rng.below(20);
    RequestSequence seq;
    for (std::size_t i = 0; i < 400; ++i) {
      seq.push_back(static_cast<PageId>(rng.below(universe)));
    }
    // Cover k beyond the distinct-page count (curve must flatten at cold).
    const std::size_t max_k = distinct_pages(seq) + 4;
    expect_matches_per_k(seq, max_k, "trial=" + std::to_string(trial));
    const std::vector<Count> curve = lru_fault_curve(seq, max_k);
    EXPECT_EQ(curve[max_k], distinct_pages(seq));
    EXPECT_EQ(curve[distinct_pages(seq)], distinct_pages(seq));
  }
}

TEST(MattsonKernel, MatchesPerKOnZipfAndScanWorkloads) {
  for (const AccessPattern pattern :
       {AccessPattern::kZipf, AccessPattern::kScan, AccessPattern::kLoop,
        AccessPattern::kWorkingSet}) {
    CoreWorkload core;
    core.pattern = pattern;
    core.num_pages = 48;
    core.length = 600;
    Rng rng(99);
    const RequestSequence seq = generate_sequence(core, 0, rng);
    expect_matches_per_k(seq, 52, to_string(pattern));
  }
}

TEST(MattsonKernel, MatchesPerKOnLemma2Sequences) {
  const RequestSet rs = lemma2_request_set({3, 2, 2}, 240);
  for (CoreId j = 0; j < rs.num_cores(); ++j) {
    expect_matches_per_k(rs.sequence(j), 9, "lemma2 core " + std::to_string(j));
  }
}

TEST(MattsonKernel, MatchesPerKOnRecordedLemma1AdversaryTrace) {
  // The Lemma 1 adversary adapts to the running policy; replaying its
  // recorded trace exercises the worst-case no-reuse pattern LRU can see.
  const Partition partition = {4, 2};
  Lemma1AdversaryStream adversary(partition.size(), /*victim_core=*/0,
                                  partition[0] + 1, /*requests_per_core=*/160);
  RecordingStream recorder(adversary);
  StaticPartitionStrategy strategy(partition, make_policy_factory("lru"));
  Simulator sim(testing::sim_config(6, 1));
  (void)sim.run_stream(recorder, strategy, nullptr);
  const RequestSet& trace = recorder.recorded();
  for (CoreId j = 0; j < trace.num_cores(); ++j) {
    expect_matches_per_k(trace.sequence(j), 8,
                         "lemma1 trace core " + std::to_string(j));
  }
}

TEST(MattsonKernel, PolicyFaultCurvesFastPathEqualsReferenceSweep) {
  // policy_fault_curves takes the Mattson path for LRU; the per-k sweep it
  // replaced must give the same curves (here reproduced via the oracle).
  Rng rng(7);
  const RequestSet rs = testing::random_disjoint_workload(rng, 3, 10, 500);
  const std::size_t K = 12;
  const PolicyFactory lru = make_policy_factory("lru");
  const FaultCurves fast = policy_fault_curves(rs, K, lru);
  ASSERT_EQ(fast.size(), rs.num_cores());
  for (CoreId j = 0; j < rs.num_cores(); ++j) {
    ASSERT_EQ(fast[j].size(), K + 1);
    for (std::size_t k = 0; k <= K; ++k) {
      EXPECT_EQ(fast[j][k],
                single_core_policy_faults(rs.sequence(j), k, lru))
          << "core=" << j << " k=" << k;
    }
  }
  // And the partition search built on the curves stays consistent with the
  // exhaustive simulate-every-partition reference.
  const PartitionSearchResult via_curves =
      optimal_partition_for_policy(rs, K, lru);
  const PartitionSearchResult via_sim =
      optimal_partition_by_simulation(testing::sim_config(K, 0), rs, lru);
  EXPECT_EQ(via_curves.faults, via_sim.faults);
}

TEST(MattsonKernel, BatchedCurvesMatchPerKOracle) {
  // lru_fault_curve_batch scans the cores in pool chunks; every core's
  // curve must equal both the scalar kernel and the per-k oracle it stands
  // in for, over ragged lengths including an empty sequence.
  Rng rng(0x3A77);
  RequestSet rs;
  rs.add_sequence({});
  for (const std::size_t len : {std::size_t{37}, std::size_t{400},
                                std::size_t{123}, std::size_t{5}}) {
    RequestSequence seq;
    const std::size_t universe = 3 + rng.below(14);
    for (std::size_t i = 0; i < len; ++i) {
      seq.push_back(static_cast<PageId>(rng.below(universe)));
    }
    rs.add_sequence(std::move(seq));
  }
  const std::size_t max_k = 18;
  const PolicyFactory lru = make_policy_factory("lru");
  const FaultCurves batched = lru_fault_curve_batch(rs, max_k);
  ASSERT_EQ(batched.size(), rs.num_cores());
  for (CoreId j = 0; j < rs.num_cores(); ++j) {
    ASSERT_EQ(batched[j].size(), max_k + 1) << "core=" << j;
    EXPECT_EQ(batched[j], lru_fault_curve(rs.sequence(j), max_k))
        << "core=" << j;
    for (std::size_t k = 0; k <= max_k; ++k) {
      EXPECT_EQ(batched[j][k],
                single_core_policy_faults(rs.sequence(j), k, lru))
          << "core=" << j << " k=" << k;
    }
  }
  // Enough cores for several chunks, so the pool runs them concurrently.
  const RequestSet wide = testing::random_disjoint_workload(rng, 40, 9, 120);
  const FaultCurves wide_curves = lru_fault_curve_batch(wide, max_k);
  ASSERT_EQ(wide_curves.size(), wide.num_cores());
  for (CoreId j = 0; j < wide.num_cores(); ++j) {
    EXPECT_EQ(wide_curves[j], lru_fault_curve(wide.sequence(j), max_k))
        << "core=" << j;
  }
}

TEST(MattsonKernel, FifoFaultCurvesRideTheBatchEngine) {
  // policy_fault_curves has no stack trick for FIFO; it materializes the
  // (core, k) grid as batch-engine jobs.  Hold it to the per-k oracle too.
  Rng rng(23);
  const RequestSet rs = testing::random_disjoint_workload(rng, 3, 8, 300);
  const std::size_t K = 9;
  const PolicyFactory fifo = make_policy_factory("fifo");
  const FaultCurves curves = policy_fault_curves(rs, K, fifo);
  ASSERT_EQ(curves.size(), rs.num_cores());
  for (CoreId j = 0; j < rs.num_cores(); ++j) {
    ASSERT_EQ(curves[j].size(), K + 1);
    for (std::size_t k = 0; k <= K; ++k) {
      EXPECT_EQ(curves[j][k],
                single_core_policy_faults(rs.sequence(j), k, fifo))
          << "core=" << j << " k=" << k;
    }
  }
}

TEST(MattsonKernel, AgreesWithWorkloadHistogramView) {
  Rng rng(41);
  RequestSequence seq;
  for (std::size_t i = 0; i < 300; ++i) {
    seq.push_back(static_cast<PageId>(rng.below(17)));
  }
  const std::vector<Count> curve = lru_fault_curve(seq, 20);
  // StackDistanceHistogram::lru_curve is the same kernel's histogram view.
  const std::vector<Count> hist_curve =
      StackDistanceHistogram(seq).lru_curve(20);
  EXPECT_EQ(curve, hist_curve);
}

}  // namespace
}  // namespace mcp
