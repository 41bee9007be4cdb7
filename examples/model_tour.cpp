// A guided, executable tour of the model semantics — the worked examples of
// docs/MODEL.md run live, with assertions.  If this binary prints all OK,
// the documentation and the simulator agree.
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/simulator.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/shared.hpp"

namespace {

using namespace mcp;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "OK" : "FAIL", what);
  if (!ok) std::exit(1);
}

/// Proposes the page it admitted last as every victim — illegal while that
/// page's fetch is still in flight.
class EvictNewest final : public CacheStrategy {
 public:
  void attach(const SimConfig&, std::size_t, const RequestSet*) override {}
  void on_hit(const AccessContext&) override {}
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (needs_cell && cache.occupied() == cache.capacity()) {
      evictions.push_back(newest_);
    }
    newest_ = ctx.page;
  }
  [[nodiscard]] std::string name() const override { return "evict-newest"; }

 private:
  PageId newest_ = kInvalidPage;
};

}  // namespace

int main() {
  using namespace mcp;
  std::printf("docs/MODEL.md, executed:\n\n");

  {
    std::printf("Worked example: K=2, tau=2, one core, R = a b a c\n");
    RequestSet rs;
    rs.add_sequence(RequestSequence{1, 2, 1, 3});
    SimConfig cfg;
    cfg.cache_size = 2;
    cfg.fault_penalty = 2;
    SharedStrategy lru(make_policy_factory("lru"));
    const RunStats stats = simulate(cfg, rs, lru);
    check(stats.core(0).fault_times == std::vector<Time>({0, 3, 7}),
          "faults issue at t = 0, 3, 7");
    check(stats.core(0).hits == 1, "the second 'a' (t=6) is the only hit");
    check(stats.core(0).completion_time == 9,
          "the 'c' fault finishes at t = 7 + tau = 9");
  }

  {
    std::printf("\nLogical order: same-step eviction is visible to later cores\n");
    // K=2, tau=0.  At t=1 core 0 evicts page 1 (LRU) before core 1's
    // same-step request to page 2, which therefore still hits.
    RequestSet rs;
    rs.add_sequence(RequestSequence{1, 3});
    rs.add_sequence(RequestSequence{2, 2});
    SimConfig cfg;
    cfg.cache_size = 2;
    cfg.fault_penalty = 0;
    SharedStrategy lru(make_policy_factory("lru"));
    const RunStats stats = simulate(cfg, rs, lru);
    check(stats.core(1).hits == 1, "core 1's second request hits");
    check(stats.core(0).faults == 2, "core 0 faults twice");
  }

  {
    std::printf("\nReserved cells: a mid-fetch page is neither usable nor evictable\n");
    // K=2, tau=4.  Core 0 faults on page 7 at t=0; its cell stays reserved
    // until t=5, so core 1's same-step request to 7 is not a hit.
    RequestSet rs;
    rs.add_sequence(RequestSequence{7});
    rs.add_sequence(RequestSequence{7});
    SimConfig cfg;
    cfg.cache_size = 2;
    cfg.fault_penalty = 4;
    SharedStrategy lru(make_policy_factory("lru"));
    const RunStats stats = simulate(cfg, rs, lru);
    check(stats.core(1).faults == 1, "page 7 is not hit-able during its fetch");

    // K=1: core 1's fault finds the only cell reserved by core 0's fetch; a
    // strategy that proposes the in-flight page as its victim is rejected.
    RequestSet pair;
    pair.add_sequence(RequestSequence{7});
    pair.add_sequence(RequestSequence{1});
    cfg.cache_size = 1;
    EvictNewest evict_newest;
    bool threw = false;
    try {
      (void)simulate(cfg, pair, evict_newest);
    } catch (const ModelError&) {
      threw = true;
    }
    check(threw, "evicting the reserved cell throws ModelError");
  }

  {
    std::printf("\nPIF accounting: faults count against t iff issued before t\n");
    RequestSet rs;
    rs.add_sequence(RequestSequence{1, 2, 1, 3});
    SimConfig cfg;
    cfg.cache_size = 2;
    cfg.fault_penalty = 2;
    SharedStrategy lru(make_policy_factory("lru"));
    const RunStats stats = simulate(cfg, rs, lru);
    check(stats.faults_before(0, 3) == 1, "by t=3: only the t=0 fault");
    check(stats.faults_before(0, 4) == 2, "by t=4: the t=3 fault counts");
    check(stats.faults_before(0, 100) == 3, "eventually all 3 count");
  }

  std::printf("\nAll model assertions hold — the docs and the simulator agree.\n");
  return 0;
}
