// Tests for the relative-progress tracker (core/progress.hpp).
#include "core/progress.hpp"

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::sim_config;

TEST(ProgressTracker, SamplesAreMonotoneAndSpaced) {
  RequestSet rs;
  RequestSequence seq;
  const std::vector<PageId> two = {1, 2};
  seq.append_repeated(two, 100);
  rs.add_sequence(std::move(seq));

  ProgressTracker tracker(1, /*sample_interval=*/16);
  SharedStrategy lru(make_policy_factory("lru"));
  Simulator sim(sim_config(4, 1));
  sim.add_observer(&tracker);
  (void)sim.run(rs, lru);

  const auto& times = tracker.sample_times();
  ASSERT_GE(times.size(), 3u);
  for (std::size_t s = 0; s < times.size(); ++s) {
    EXPECT_EQ(times[s], s * 16);
  }
  const auto& samples = tracker.samples();
  for (std::size_t s = 1; s < samples.size(); ++s) {
    EXPECT_GE(samples[s][0], samples[s - 1][0]);
  }
}

TEST(ProgressTracker, SymmetricCoresHaveTinySpread) {
  // Two identical hit-friendly cores progress in lockstep.
  RequestSet rs;
  for (int j = 0; j < 2; ++j) {
    RequestSequence seq;
    const std::vector<PageId> pages = {static_cast<PageId>(10 * j),
                                       static_cast<PageId>(10 * j + 1)};
    seq.append_repeated(pages, 100);
    rs.add_sequence(std::move(seq));
  }
  ProgressTracker tracker(2, 16);
  SharedStrategy lru(make_policy_factory("lru"));
  Simulator sim(sim_config(4, 3));
  sim.add_observer(&tracker);
  (void)sim.run(rs, lru);
  EXPECT_LT(tracker.max_spread(rs), 0.05);
}

TEST(ProgressTracker, StarvedCoreShowsLargeSpread) {
  // Core 0 runs from cache; core 1 thrashes a 1-cell part with big tau.
  RequestSet rs;
  RequestSequence fast;
  const std::vector<PageId> one = {1};
  fast.append_repeated(one, 200);
  rs.add_sequence(std::move(fast));
  RequestSequence slow;
  const std::vector<PageId> pair = {11, 12};
  slow.append_repeated(pair, 200);
  rs.add_sequence(std::move(slow));

  ProgressTracker tracker(2, 16);
  StaticPartitionStrategy uneven({3, 1}, make_policy_factory("lru"));
  Simulator sim(sim_config(4, 9));
  sim.add_observer(&tracker);
  (void)sim.run(rs, uneven);
  EXPECT_GT(tracker.max_spread(rs), 0.5);
}

TEST(ProgressTracker, FastForwardStillEmitsSamples) {
  // One core with a huge tau: the simulator skips idle steps, but samples
  // at every interval boundary must still appear.
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2, 3});
  ProgressTracker tracker(1, 100);
  SharedStrategy lru(make_policy_factory("lru"));
  Simulator sim(sim_config(4, 500));
  sim.add_observer(&tracker);
  (void)sim.run(rs, lru);
  // Run spans ~1500 steps: samples at 0,100,...,>=1000.
  EXPECT_GE(tracker.sample_times().size(), 10u);
  for (std::size_t s = 1; s < tracker.sample_times().size(); ++s) {
    EXPECT_EQ(tracker.sample_times()[s] - tracker.sample_times()[s - 1], 100u);
  }
  // Requests issue at t=0, 501 and 1002; a fast-forwarded boundary reads
  // the counts before the step that ends the fast-forward.
  const auto& samples = tracker.samples();
  ASSERT_GE(samples.size(), 11u);
  EXPECT_EQ(samples[0][0], 1u);  // t=0
  for (std::size_t s = 1; s <= 5; ++s) {
    EXPECT_EQ(samples[s][0], 1u) << "t=" << tracker.sample_times()[s];
  }
  for (std::size_t s = 6; s <= 10; ++s) {
    EXPECT_EQ(samples[s][0], 2u) << "t=" << tracker.sample_times()[s];
  }
}

}  // namespace
}  // namespace mcp
