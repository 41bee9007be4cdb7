// Differential test: the engine's hook instantiation (Simulator, over
// BatchEngine's step loop) must be observably identical to the independent
// reference step loop (tests/reference_engine.hpp) — same hits, faults,
// fault timelines, completion times, end time and step count, and the same
// SimObserver event log (hits, faults, evictions with cause, ordered fetch
// completions, core done, step begin and end) — for every strategy family,
// policy, workload shape, tau and shared-fetch mode in the grid below, and
// for adaptive streams replayed from their recorded trace.
#include "reference_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/scheduling.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/partition.hpp"
#include "strategies/set_associative.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"
#include "workload/workload.hpp"

namespace mcp {
namespace {

using testing::random_disjoint_workload;
using testing::random_shared_workload;
using testing::reference_simulate;

/// One SimObserver callback, flattened.
struct Event {
  enum class Kind : std::uint8_t {
    kStepBegin, kHit, kFault, kEvict, kFetchComplete, kCoreDone, kStepEnd
  };
  Kind kind = Kind::kStepBegin;
  Time time = 0;
  CoreId core = kInvalidCore;
  PageId page = kInvalidPage;
  std::size_t seq_index = 0;
  EvictionCause cause = EvictionCause::kFault;

  bool operator==(const Event&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Event& e) {
  return os << "{kind=" << static_cast<int>(e.kind) << " t=" << e.time
            << " core=" << e.core << " page=" << e.page
            << " seq=" << e.seq_index << " cause=" << static_cast<int>(e.cause)
            << "}";
}

/// Records every callback in firing order.
class EventLog final : public SimObserver {
 public:
  void on_step_begin(Time now) override { add({Event::Kind::kStepBegin, now}); }
  void on_hit(const AccessContext& ctx) override {
    add({Event::Kind::kHit, ctx.now, ctx.core, ctx.page, ctx.seq_index});
  }
  void on_fault(const AccessContext& ctx) override {
    add({Event::Kind::kFault, ctx.now, ctx.core, ctx.page, ctx.seq_index});
  }
  void on_evict(PageId page, CoreId core, Time now,
                EvictionCause cause) override {
    add({Event::Kind::kEvict, now, core, page, 0, cause});
  }
  void on_fetch_complete(PageId page, CoreId core, Time now) override {
    add({Event::Kind::kFetchComplete, now, core, page});
  }
  void on_core_done(CoreId core, Time finish) override {
    add({Event::Kind::kCoreDone, finish, core});
  }
  void on_step_end(Time now) override { add({Event::Kind::kStepEnd, now}); }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 private:
  void add(const Event& event) { events_.push_back(event); }
  std::vector<Event> events_;
};

void expect_same_events(const EventLog& engine, const EventLog& reference,
                        const std::string& label) {
  const std::vector<Event>& a = engine.events();
  const std::vector<Event>& b = reference.events();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(a[i] == b[i])) {
      ADD_FAILURE() << label << ": event " << i << " differs: engine " << a[i]
                    << " vs reference " << b[i];
      return;
    }
  }
  EXPECT_EQ(a.size(), b.size()) << label << ": event log lengths differ";
  EXPECT_GT(a.size(), 0u) << label;
}

void expect_same_stats(const RunStats& optimized, const RunStats& reference,
                       const std::string& label) {
  ASSERT_EQ(optimized.num_cores(), reference.num_cores()) << label;
  EXPECT_EQ(optimized.end_time, reference.end_time) << label;
  EXPECT_EQ(optimized.sim_steps, reference.sim_steps) << label;
  for (CoreId j = 0; j < optimized.num_cores(); ++j) {
    const CoreStats& a = optimized.core(j);
    const CoreStats& b = reference.core(j);
    EXPECT_EQ(a.hits, b.hits) << label << " core=" << j;
    EXPECT_EQ(a.faults, b.faults) << label << " core=" << j;
    EXPECT_EQ(a.requests, b.requests) << label << " core=" << j;
    EXPECT_EQ(a.completion_time, b.completion_time) << label << " core=" << j;
    EXPECT_EQ(a.fault_times, b.fault_times) << label << " core=" << j;
  }
}

struct StrategyCase {
  std::string label;
  std::function<std::unique_ptr<CacheStrategy>()> make;
};

/// The strategy grid; every entry is rebuilt fresh for each engine so
/// stateful strategies (and seeded policies) start identically.
std::vector<StrategyCase> strategy_grid(std::size_t p, std::size_t K) {
  std::vector<StrategyCase> grid;
  for (const std::string policy : {"lru", "fifo", "clock", "lfu", "slru"}) {
    grid.push_back({"S_" + policy, [policy] {
                      return std::make_unique<SharedStrategy>(
                          make_policy_factory(policy));
                    }});
  }
  grid.push_back({"S_random", [] {
                    return std::make_unique<SharedStrategy>(
                        make_policy_factory("random", 1234));
                  }});
  grid.push_back({"S_fitf", [] { return SharedStrategy::fitf(); }});
  grid.push_back({"sP_even_lru", [p, K] {
                    return std::make_unique<StaticPartitionStrategy>(
                        even_partition(K, p), make_policy_factory("lru"));
                  }});
  grid.push_back(
      {"dP_lemma3", [] { return std::make_unique<Lemma3DynamicPartition>(); }});
  grid.push_back({"dP_staged", [p, K] {
                    std::vector<PartitionStage> schedule;
                    schedule.push_back({0, even_partition(K, p)});
                    Partition skewed = even_partition(K, p);
                    skewed[0] += skewed[1] - 1;
                    skewed[1] = 1;
                    schedule.push_back({40, skewed});
                    schedule.push_back({120, even_partition(K, p)});
                    return std::make_unique<StagedPartitionStrategy>(
                        std::move(schedule), make_policy_factory("lru"));
                  }});
  grid.push_back({"SA_2way", [K] {
                    return std::make_unique<SetAssociativeStrategy>(
                        K / 2, make_policy_factory("lru"));
                  }});
  grid.push_back({"time_mux", [] {
                    return std::make_unique<TimeMultiplexStrategy>();
                  }});
  return grid;
}

struct WorkloadCase {
  std::string label;
  RequestSet requests;
};

std::vector<WorkloadCase> workload_grid(std::size_t p) {
  std::vector<WorkloadCase> grid;
  {
    Rng rng(20260807);
    grid.push_back(
        {"disjoint_uniform", random_disjoint_workload(rng, p, 7, 160)});
  }
  {
    Rng rng(4242);
    grid.push_back(
        {"shared_uniform", random_shared_workload(rng, p, 12, 160)});
  }
  {
    CoreWorkload core;
    core.pattern = AccessPattern::kZipf;
    core.num_pages = 24;
    core.length = 200;
    grid.push_back({"disjoint_zipf", make_workload(homogeneous_spec(p, core))});
  }
  return grid;
}

TEST(EngineDifferential, OptimizedEngineMatchesReferenceAcrossGrid) {
  const std::size_t p = 3;
  const std::size_t K = 6;
  for (const WorkloadCase& wl : workload_grid(p)) {
    for (const StrategyCase& sc : strategy_grid(p, K)) {
      // Offline strategies need materialized (and for FITF, any) inputs;
      // time_mux defers, which is fine everywhere.
      for (const Time tau : {Time{0}, Time{3}}) {
        for (const SharedFetchMode mode :
             {SharedFetchMode::kCountsAsFault, SharedFetchMode::kJoinsFetch}) {
          SimConfig config = testing::sim_config(K, tau);
          config.shared_fetch = mode;
          config.record_fault_timeline = true;
          const std::string label =
              wl.label + "/" + sc.label + "/tau=" + std::to_string(tau) +
              (mode == SharedFetchMode::kJoinsFetch ? "/join" : "/fault");

          const std::unique_ptr<CacheStrategy> opt_strategy = sc.make();
          EventLog engine_log;
          Simulator sim(config);
          sim.add_observer(&engine_log);
          const RunStats optimized = sim.run(wl.requests, *opt_strategy);

          const std::unique_ptr<CacheStrategy> ref_strategy = sc.make();
          EventLog reference_log;
          SimObserver* const observers[] = {&reference_log};
          const RunStats reference = reference_simulate(
              config, wl.requests, *ref_strategy, observers);

          expect_same_stats(optimized, reference, label);
          expect_same_events(engine_log, reference_log, label);
        }
      }
    }
  }
}

TEST(EngineDifferential, AdaptiveUniverseGrowthMatchesReference) {
  // Large, sparse page ids: a materialized run sizes the engine's page
  // index once; a stream run (no offline info) grows it on demand.  Both
  // must agree with the reference.
  RequestSet rs;
  rs.add_sequence({1000000, 5, 1000000, 70000, 5, 900001, 1000000});
  rs.add_sequence({2000000, 2000001, 2000000, 2000001, 42});
  SimConfig config = testing::sim_config(3, 2);
  config.record_fault_timeline = true;

  SharedStrategy reference_strategy(make_policy_factory("lru"));
  EventLog reference_log;
  SimObserver* const observers[] = {&reference_log};
  const RunStats reference =
      reference_simulate(config, rs, reference_strategy, observers);

  for (const bool materialized : {true, false}) {
    SharedStrategy strategy(make_policy_factory("lru"));
    EventLog engine_log;
    Simulator sim(config);
    sim.add_observer(&engine_log);
    FixedStream stream(rs);
    const RunStats optimized =
        materialized ? sim.run(rs, strategy)
                     : sim.run_stream(stream, strategy, nullptr);
    const std::string label = materialized ? "sparse_ids" : "sparse_ids/stream";
    expect_same_stats(optimized, reference, label);
    expect_same_events(engine_log, reference_log, label);
  }
}

TEST(EngineDifferential, AdaptiveStreamsReplayThroughReference) {
  // An adaptive adversary's next request depends on the engine's evictions,
  // so the reference cannot drive it directly: record the stream the engine
  // saw, replay the recorded trace through the reference, and require the
  // same stats and the same event log.
  struct AdaptiveCase {
    std::string label;
    std::function<std::unique_ptr<RequestStream>()> make_stream;
    std::function<std::unique_ptr<CacheStrategy>()> make_strategy;
    std::size_t cache_size;
  };
  const std::vector<AdaptiveCase> cases = {
      {"lemma1/sP[4,2]_lru",
       [] { return std::make_unique<Lemma1AdversaryStream>(2, 0, 5, 120); },
       [] {
         return std::make_unique<StaticPartitionStrategy>(
             Partition{4, 2}, make_policy_factory("lru"));
       },
       6},
      {"staged/S_fifo",
       [] { return std::make_unique<StagedAdversaryStream>(3, 4, 10, 3); },
       [] {
         return std::make_unique<SharedStrategy>(make_policy_factory("fifo"));
       },
       6},
      {"staged/dP_lemma3",
       [] { return std::make_unique<StagedAdversaryStream>(2, 5, 12, 4); },
       [] { return std::make_unique<Lemma3DynamicPartition>(); },
       6},
  };
  for (const AdaptiveCase& ac : cases) {
    for (const Time tau : {Time{0}, Time{3}}) {
      const SimConfig config = testing::sim_config(ac.cache_size, tau);
      const std::string label = ac.label + "/tau=" + std::to_string(tau);

      const std::unique_ptr<RequestStream> adversary = ac.make_stream();
      RecordingStream recorder(*adversary);
      const std::unique_ptr<CacheStrategy> strategy = ac.make_strategy();
      EventLog engine_log;
      Simulator sim(config);
      sim.add_observer(&engine_log);
      const RunStats online = sim.run_stream(recorder, *strategy, nullptr);

      const std::unique_ptr<CacheStrategy> replayed = ac.make_strategy();
      EventLog reference_log;
      SimObserver* const observers[] = {&reference_log};
      const RunStats reference = reference_simulate(
          config, recorder.recorded(), *replayed, observers);

      expect_same_stats(online, reference, label);
      expect_same_events(engine_log, reference_log, label);
      EXPECT_GT(online.total_faults(), 0u) << label;
    }
  }
}

}  // namespace
}  // namespace mcp
