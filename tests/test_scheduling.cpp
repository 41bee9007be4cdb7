// Tests for the deferral hook (the Hassidim-model scheduling power) and the
// TimeMultiplexStrategy built on it.
#include "adversary/scheduling.hpp"

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"
#include "test_support.hpp"

namespace mcp {
namespace {

using testing::sim_config;

RequestSet overfull_cycles(std::size_t p, std::size_t cycle, std::size_t laps) {
  // Each core cycles `cycle` private pages; together they exceed K.
  RequestSet rs;
  for (std::size_t j = 0; j < p; ++j) {
    RequestSequence seq;
    const std::vector<PageId> pages =
        page_block(static_cast<PageId>(j * cycle), cycle);
    seq.append_repeated(pages, laps);
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

TEST(TimeMultiplex, ServesOneCoreAtATime) {
  // Cores run strictly in id order: core 1's first service happens after
  // core 0's last.
  const RequestSet rs = overfull_cycles(2, 3, 5);
  TimeMultiplexStrategy mux;
  const RunStats stats = simulate(sim_config(4, 2), rs, mux);
  // Core 0: 3 compulsory faults + hits; core 1 starts afterwards.
  EXPECT_EQ(stats.core(0).faults, 3u);
  EXPECT_EQ(stats.core(1).faults, 3u);
  ASSERT_FALSE(stats.core(1).fault_times.empty());
  EXPECT_GT(stats.core(1).fault_times.front(), stats.core(0).completion_time);
}

TEST(TimeMultiplex, ConvertsThrashIntoCompulsoryMisses) {
  // K = 4 but each of 2 cores cycles 3 pages: concurrently they thrash any
  // honest shared policy; multiplexed, each runs with the whole cache.
  const RequestSet rs = overfull_cycles(2, 3, 40);
  const SimConfig cfg = sim_config(4, 6);

  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats shared = simulate(cfg, rs, lru);
  TimeMultiplexStrategy mux;
  const RunStats muxed = simulate(cfg, rs, mux);

  EXPECT_EQ(muxed.total_faults(), 6u);  // compulsory only
  EXPECT_GT(shared.total_faults(), 20 * muxed.total_faults());
  // With a large tau, fewer faults even wins the makespan despite running
  // serially — the scheduling power is real.
  EXPECT_LT(muxed.makespan(), shared.makespan());
}

TEST(TimeMultiplex, SmallTauFavoursConcurrency) {
  // With tau = 0 faults are cheap: running serially costs makespan.
  const RequestSet rs = overfull_cycles(2, 3, 40);
  const SimConfig cfg = sim_config(4, 0);
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats shared = simulate(cfg, rs, lru);
  TimeMultiplexStrategy mux;
  const RunStats muxed = simulate(cfg, rs, mux);
  EXPECT_LT(muxed.total_faults(), shared.total_faults());
  EXPECT_GT(muxed.makespan(), shared.makespan());
}

TEST(TimeMultiplex, HandlesEmptySequencesAndFinishes) {
  RequestSet rs;
  rs.add_sequence(RequestSequence{});
  rs.add_sequence(RequestSequence{1, 2, 1});
  rs.add_sequence(RequestSequence{});
  TimeMultiplexStrategy mux;
  const RunStats stats = simulate(sim_config(4, 1), rs, mux);
  EXPECT_EQ(stats.core(1).requests, 3u);
}

// A strategy that defers everything forever must be caught as livelock.
class StarveEverything final : public CacheStrategy {
 public:
  void attach(const SimConfig&, std::size_t, const RequestSet*) override {}
  [[nodiscard]] bool defer_request(const AccessContext&,
                                   const CacheView&) override {
    return true;
  }
  void on_hit(const AccessContext&) override {}
  void on_fault(const AccessContext&, const CacheView&, bool,
                std::vector<PageId>&) override {}
  [[nodiscard]] std::string name() const override { return "STARVE"; }
};

TEST(Deferral, TotalStarvationIsLivelockChecked) {
  RequestSet rs;
  rs.add_sequence(RequestSequence{1});
  StarveEverything strategy;
  SimConfig cfg = sim_config(2, 0);
  cfg.max_steps = 100;  // cheaper than waiting out the livelock threshold
  Simulator sim(cfg);
  EXPECT_THROW((void)sim.run(rs, strategy), ModelError);
}

TEST(Deferral, DefaultStrategiesNeverDefer) {
  // The in-model strategies keep the paper's "serve as they arrive" rule:
  // per-core completion of an all-hit run is unchanged.
  RequestSet rs;
  RequestSequence seq;
  const std::vector<PageId> one = {1};
  seq.append_repeated(one, 20);
  rs.add_sequence(std::move(seq));
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats stats = simulate(sim_config(2, 3), rs, lru);
  EXPECT_EQ(stats.core(0).completion_time, 22u);  // fault 0..3, hits 4..22
}

}  // namespace
}  // namespace mcp
