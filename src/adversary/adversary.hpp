// Executable lower-bound constructions — the adversarial request families
// from the paper's proofs, each parameterized exactly as in the text.
//
//  * Lemma 1 (lower):  adaptive adversary against a fixed static partition —
//    the big-part core always requests the page the algorithm just evicted.
//  * Lemma 2:          fixed family on which any online static partition is
//    Omega(n) worse than the offline-optimal partition.
//  * Theorem 1.1:      the "distinct period" round-robin family on which
//    shared LRU beats every static partition by Omega(n).
//  * Theorem 1.3:      adaptive staged adversary against dynamic partitions
//    that change rarely.
//  * Lemma 4:          disjoint cyclic family with the sacrifice-one-core
//    offline strategy S_OFF, giving S_LRU/S_OFF = Omega(p(tau+1)) and
//    exposing FITF's non-optimality for tau > K/p.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "core/strategy.hpp"
#include "core/stream.hpp"
#include "policies/future_oracle.hpp"
#include "strategies/partition.hpp"

namespace mcp {

// ---------------------------------------------------------------------------
// Lemma 1 (lower bound): adaptive adversary vs a fixed static partition.
// ---------------------------------------------------------------------------

/// Adaptive stream for the Lemma 1 lower bound.  Core `victim_core` cycles
/// adaptively through `num_pages` private pages (k_max + 1 of them),
/// requesting whichever is currently absent; every other core requests one
/// fixed private page.  Page ids: core j owns [j*stride, (j+1)*stride).
class Lemma1AdversaryStream final : public RequestStream, public SimObserver {
 public:
  /// `requests_per_core` bounds each core's stream length (the paper's n/p).
  Lemma1AdversaryStream(std::size_t num_cores, CoreId victim_core,
                        std::size_t num_pages, std::size_t requests_per_core);

  [[nodiscard]] std::size_t num_cores() const override { return issued_.size(); }
  std::optional<PageId> next(CoreId core) override;
  SimObserver* observer() override { return this; }

  // Track residency of the victim core's pages.
  void on_fault(const AccessContext& ctx) override;
  void on_evict(PageId page, CoreId core, Time now, EvictionCause cause) override;

 private:
  [[nodiscard]] PageId my_page(std::size_t i) const {
    return static_cast<PageId>(victim_core_) * stride_ + static_cast<PageId>(i);
  }

  CoreId victim_core_;
  std::size_t num_pages_;
  std::size_t requests_per_core_;
  PageId stride_;
  std::vector<std::size_t> issued_;
  std::vector<bool> resident_;  // victim core's pages believed in cache
};

/// One point of the Lemma-1 adversarial fault curve.
struct AdversaryCurvePoint {
  std::size_t k_max = 0;  ///< size of the victim core's (largest) part
  Count online = 0;       ///< online policy faults on the adaptive stream
  Count opt = 0;          ///< sum of per-part Belady optima on that stream
  [[nodiscard]] double ratio() const noexcept {
    return opt == 0 ? 0.0
                    : static_cast<double>(online) / static_cast<double>(opt);
  }
};

/// Constructs the Lemma-1 lower-bound fault curve: for each k_max in
/// `k_values`, runs the adaptive adversary against the two-part partition
/// {k_max, background_part} under the named eviction policy, records the
/// stream it produced, and scores the online run against the per-part
/// offline optimum (sP^B_OPT).  The cells are independent simulations and
/// are swept on the shared thread pool; the adversary is adaptive but
/// seed-free, so the curve is bit-identical for any worker count.
[[nodiscard]] std::vector<AdversaryCurvePoint> lemma1_fault_curve(
    const std::vector<std::size_t>& k_values, const std::string& policy,
    std::size_t requests_per_core, std::size_t background_part = 2);

// ---------------------------------------------------------------------------
// Fixed request families.
// ---------------------------------------------------------------------------

/// Lemma 2 family for online static partition B: the p-1 "cycling" cores
/// overflow (or exactly fill) their parts while the smallest >=2-cell part's
/// core requests a single page, wasting its allocation.  `n` is the total
/// request budget (each core gets ~n/p requests).
[[nodiscard]] RequestSet lemma2_request_set(const Partition& partition,
                                            std::size_t total_requests);

/// Theorem 1.1 "distinct period" family: cores take turns cycling K/p + 1
/// distinct pages (x laps) while everyone else re-requests one page.
/// Requires p | K.  Page ids: core j owns [j*(K/p+2), ...).
[[nodiscard]] RequestSet theorem1_distinct_period_set(std::size_t num_cores,
                                                      std::size_t cache_size,
                                                      Time tau, std::size_t x);

/// Lemma 4 family: each core cycles K/p + 1 private pages for
/// `requests_per_core` requests.  Shared LRU faults on everything; the
/// sacrifice strategy serves p-1 cores from cache.  Requires p | K.
[[nodiscard]] RequestSet lemma4_request_set(std::size_t num_cores,
                                            std::size_t cache_size,
                                            std::size_t requests_per_core);

// ---------------------------------------------------------------------------
// Theorem 1.3: adaptive staged adversary.
// ---------------------------------------------------------------------------

/// Cores take turns being "in the distinct period" for `turn_length`
/// requests: the active core adaptively requests an absent page among its
/// first `pages_per_core` private pages; inactive cores re-request their
/// home page.  `laps` full rotations are issued.
class StagedAdversaryStream final : public RequestStream, public SimObserver {
 public:
  StagedAdversaryStream(std::size_t num_cores, std::size_t pages_per_core,
                        std::size_t turn_length, std::size_t laps);

  [[nodiscard]] std::size_t num_cores() const override { return issued_.size(); }
  std::optional<PageId> next(CoreId core) override;
  SimObserver* observer() override { return this; }

  void on_fault(const AccessContext& ctx) override;
  void on_evict(PageId page, CoreId core, Time now, EvictionCause cause) override;

 private:
  [[nodiscard]] PageId page_of(CoreId core, std::size_t i) const {
    return static_cast<PageId>(core) * stride_ + static_cast<PageId>(i);
  }

  std::size_t pages_per_core_;
  std::size_t turn_length_;
  std::size_t total_per_core_;
  PageId stride_;
  std::vector<std::size_t> issued_;
  std::vector<std::vector<bool>> resident_;  // per core, per private page
};

// ---------------------------------------------------------------------------
// Lemma 4: the offline "sacrifice one core" strategy S_OFF.
// ---------------------------------------------------------------------------

/// Offline strategy from the Lemma 4 proof: all cores except `sacrifice`
/// get their whole working set cached (faults evict the sacrifice's pages);
/// the sacrifice core's faults evict its own next-requested page, so it
/// alone keeps faulting while everyone else runs from cache.
class SacrificeStrategy final : public CacheStrategy {
 public:
  explicit SacrificeStrategy(CoreId sacrifice);

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override { return "S_OFF(sacrifice)"; }

 private:
  CoreId sacrifice_;
  FutureOracle oracle_;
  std::vector<CoreId> owner_;  // page -> owning core
  std::vector<PageId> resident_;  // tracked resident pages (sorted)
  std::size_t cache_size_ = 0;
};

}  // namespace mcp
