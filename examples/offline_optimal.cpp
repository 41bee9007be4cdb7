// Offline optimum end-to-end on a tiny instance: Algorithm 1 (optimal
// FINAL-TOTAL-FAULTS), schedule replay through the simulator, the Theorem-5
// restricted search, and an Algorithm 2 PIF decision — compared against
// online LRU.
#include <cstdio>

#include "core/simulator.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"

int main() {
  using namespace mcp;

  // A small disjoint instance where eviction order genuinely matters:
  // two cores, three pages each, cache K=3, fault penalty tau=2.
  OfflineInstance instance;
  instance.requests.add_sequence(RequestSequence{0, 1, 2, 0, 1, 2, 0, 1});
  instance.requests.add_sequence(RequestSequence{10, 11, 10, 12, 11, 10});
  instance.cache_size = 3;
  instance.tau = 2;
  std::printf("instance: %s, K=%zu, tau=%llu\n",
              instance.requests.describe().c_str(), instance.cache_size,
              static_cast<unsigned long long>(instance.tau));

  // Online baseline.
  SharedStrategy lru(make_policy_factory("lru"));
  const RunStats lru_stats = simulate(instance.sim_config(), instance.requests, lru);
  std::printf("\nS_LRU (online):            %llu faults\n",
              static_cast<unsigned long long>(lru_stats.total_faults()));

  // Algorithm 1: exact optimum, with the optimal eviction schedule.
  FtfOptions options;
  options.build_schedule = true;
  const FtfResult opt = solve_ftf(instance, options);
  std::printf("Algorithm 1 (exact OPT):   %llu faults  (%zu states stored)\n",
              static_cast<unsigned long long>(opt.min_faults),
              opt.states_stored);

  // Theorem 5's restriction: evict only furthest-in-future-within-some-
  // sequence pages.  It matched the optimum on E11's sample, and loses one
  // fault on 24 of 308,025 instances at p = 2 with at most 6 requests per
  // core.
  FtfOptions restricted;
  restricted.victim_rule = VictimRule::kFitfPerSequence;
  const FtfResult fitf = solve_ftf(instance, restricted);
  std::printf("Theorem-5 restricted OPT:  %llu faults  (%zu states stored)\n",
              static_cast<unsigned long long>(fitf.min_faults),
              fitf.states_stored);

  // Replay the optimal schedule through the real simulator — the counts
  // must agree (this is how the test suite validates the solver, too).
  const RunStats replay = replay_schedule(instance, opt.schedule);
  std::printf("replayed schedule:         %llu faults (simulator-verified)\n",
              static_cast<unsigned long long>(replay.total_faults()));

  std::printf("\noptimal eviction schedule (one entry per fault):\n  ");
  for (PageId victim : opt.schedule) {
    if (victim == kInvalidPage) {
      std::printf("[free] ");
    } else {
      std::printf("[evict %u] ", victim);
    }
  }
  std::printf("\n");

  // Algorithm 2: PIF questions — can we serve the instance so that by time
  // 12 each core has faulted at most b times?  The feasibility frontier sits
  // between b=3 (no) and b=4 (yes); and the same bound that works at t=12
  // fails at t=16, showing feasibility is antitone in the deadline.
  PifInstance pif;
  pif.base = instance;
  pif.deadline = 12;
  pif.bounds = {4, 4};
  std::printf("\nPIF: at most 4 faults per core by t=12?  %s\n",
              solve_pif(pif).feasible ? "YES" : "NO");
  PifInstance tight = pif;
  tight.bounds = {3, 3};
  std::printf("PIF: at most 3 faults per core by t=12?  %s\n",
              solve_pif(tight).feasible ? "YES" : "NO");
  PifInstance later = pif;
  later.deadline = 16;
  std::printf("PIF: at most 4 faults per core by t=16?  %s"
              "  (later deadlines are harder)\n",
              solve_pif(later).feasible ? "YES" : "NO");
  return 0;
}
