// The cache-strategy interface: the decision maker under test.
//
// The paper classifies strategies as *shared* (S_A), *static partition*
// (sP^B_A) and *dynamic partition* (dP^D_A); all fit this interface.  A
// strategy never mutates the cache itself — it reads it through a CacheView
// and returns eviction decisions, which the engine's step loop
// (core/batch_engine.cpp, the hook instantiation) validates (pages must be
// present, reserved cells are untouchable) and applies.  This separation is
// what lets the honesty checker (Theorem 4) and the statistics layer trust
// the event feed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp {

/// Run-wide parameters of the model.
struct SimConfig {
  std::size_t cache_size = 0;  ///< K, in pages.
  Time fault_penalty = 0;      ///< tau: extra delay per miss (miss = tau+1 steps).
  SharedFetchMode shared_fetch = SharedFetchMode::kCountsAsFault;
  /// Record per-fault timestamps (needed for PIF-style "faults by time t"
  /// queries; costs memory proportional to the number of faults).
  bool record_fault_timeline = true;
  /// Hard stop: abort with ModelError if the run exceeds this many steps
  /// (guards against adaptive streams that never terminate). 0 = no limit.
  Time max_steps = 0;
  /// Allocation sentry (DESIGN.md §10): arm an AllocGuard over every
  /// simulation step past this step count (0 = disabled).  Turns the
  /// steady-state allocation-free hot-path claim (§8) into an enforced
  /// invariant: any heap allocation in a guarded step — step-loop
  /// bookkeeping, observers or strategy callbacks — throws ModelError.
  /// Arm it only past warm-up and only with strategies whose steady-state
  /// callbacks do not allocate.
  Time alloc_guard_after_step = 0;
};

/// Eviction policies the stamp kernels (core/batch_engine.hpp) run on flat
/// per-slot state, each bit-identical to its src/policies object: LRU and
/// FIFO, CLOCK, LFU, MARK (the marking algorithm with LRU tie-break) and
/// LRU-SCAN.  Such an object names its kernel policy
/// (EvictionPolicy::batch_policy).
enum class BatchPolicy : std::uint8_t {
  kLru, kFifo, kClock, kLfu, kMark, kLruScan
};

/// The display name of `policy`'s src/policies object.
[[nodiscard]] constexpr const char* batch_policy_name(
    BatchPolicy policy) noexcept {
  switch (policy) {
    case BatchPolicy::kLru: return "LRU";
    case BatchPolicy::kFifo: return "FIFO";
    case BatchPolicy::kClock: return "CLOCK";
    case BatchPolicy::kLfu: return "LFU";
    case BatchPolicy::kMark: return "MARK";
    case BatchPolicy::kLruScan: return "LRU-SCAN";
  }
  return "?";
}

/// Value-type description of a strategy a stamp kernel runs (no factories
/// or virtual dispatch: a SimJob must be shippable to any worker).
struct BatchStrategySpec {
  enum class Kind : std::uint8_t { kShared, kStaticPartition };

  Kind kind = Kind::kShared;
  BatchPolicy policy = BatchPolicy::kLru;
  /// kStaticPartition only: one entry per core, each >= 1, summing to K.
  std::vector<std::size_t> partition;

  [[nodiscard]] static BatchStrategySpec shared(BatchPolicy policy) {
    return {Kind::kShared, policy, {}};
  }
  [[nodiscard]] static BatchStrategySpec static_partition(
      std::vector<std::size_t> partition, BatchPolicy policy) {
    return {Kind::kStaticPartition, policy, std::move(partition)};
  }
};

/// Read-only view of the shared cache that strategies decide against.  A
/// cell holds a page that is either present (hit-able, evictable) or still
/// in flight (its cell is reserved until the fetch lands, per Section 3).
/// The engine implements it over its slot arrays; the test oracle
/// (tests/reference_engine.hpp) over its own map.
class CacheView {
 public:
  /// True iff `page` is present: a request to it now would hit.  False for
  /// absent pages and for pages whose fetch is still in flight.  Not
  /// virtual: victim scans test every candidate with it, so it reads the
  /// presence table the implementation keeps (set_presence).
  [[nodiscard]] bool contains(PageId page) const noexcept {
    return page < presence_.size() && presence_[page] != 0;
  }
  /// One past the largest page id the presence table covers.  The engine
  /// covers a materialized request set's whole universe from the first
  /// step and grows the table for a streamed page before any strategy
  /// callback sees it, so page-indexed strategy tables can size themselves
  /// from it instead of rescanning the requests.
  [[nodiscard]] std::size_t page_bound() const noexcept {
    return presence_.size();
  }
  /// Cells in use: present pages plus cells reserved by in-flight fetches.
  [[nodiscard]] virtual std::size_t occupied() const = 0;
  /// K, the number of cells.
  [[nodiscard]] virtual std::size_t capacity() const = 0;
  /// Snapshot of the present pages, ascending page id.  Allocates.
  [[nodiscard]] virtual std::vector<PageId> present_pages() const = 0;

  CacheView(const CacheView&) = delete;
  CacheView& operator=(const CacheView&) = delete;

 protected:
  CacheView() = default;
  ~CacheView() = default;

  /// Points contains() at the implementation's page-indexed presence table:
  /// entry p is nonzero iff page p is present, and pages past its end are
  /// absent.  Call again whenever the table moves.
  void set_presence(std::span<const std::uint8_t> presence) noexcept {
    presence_ = presence;
  }

 private:
  std::span<const std::uint8_t> presence_;
};

class CacheStrategy {
 public:
  virtual ~CacheStrategy() = default;

  /// Called once before a run.  `requests` is non-null when the input is a
  /// materialized RequestSet (offline strategies need it; online strategies
  /// must ignore everything but the core count).
  virtual void attach(const SimConfig& config, std::size_t num_cores,
                      const RequestSet* requests) = 0;

  /// The request `ctx` hit in cache.
  virtual void on_hit(const AccessContext& ctx) = 0;

  /// The request `ctx` faulted.  If `needs_cell` is true the strategy must
  /// append the pages to evict to `evictions` so that at least one free cell
  /// exists; the usual case is exactly one victim when its region is full
  /// and none otherwise.  If `needs_cell` is false (shared-fetch join: the
  /// page is already in flight) the strategy must append nothing.
  ///
  /// `evictions` is a scratch buffer owned by the engine, cleared before
  /// the call (the allocation-free step-loop contract, DESIGN.md §8):
  /// strategies only push_back and never keep a reference past the call.
  virtual void on_fault(const AccessContext& ctx, const CacheView& cache,
                        bool needs_cell, std::vector<PageId>& evictions) = 0;

  /// A fetch issued earlier completed; `page` is now present.  `core` is
  /// the core whose fault started the fetch.  A step's landings are
  /// reported in ascending page id, all after the whole batch is present.
  virtual void on_fetch_complete(PageId page, CoreId core, Time now) {
    (void)page; (void)core; (void)now;
  }

  /// Called at the start of every timestep, before any request is served.
  /// May append *voluntary* evictions — pages evicted without a fault — to
  /// the engine-owned scratch buffer `evictions` (cleared before the
  /// call).  The paper calls strategies that never do this "honest"
  /// (Theorem 4 shows honesty is WLOG for disjoint inputs); dynamic
  /// partitions use it to shrink parts, and Theorem-4 experiments use it to
  /// force faults.
  virtual void on_step_begin(Time now, const CacheView& cache,
                             std::vector<PageId>& evictions) {
    (void)now; (void)cache; (void)evictions;
  }

  /// Core `core` issued its last request.
  virtual void on_core_done(CoreId core, Time now) { (void)core; (void)now; }

  /// Model extension (OFF in the paper's model): called before serving a
  /// ready request; returning true postpones it to the next step.  This is
  /// exactly the scheduling power Hassidim's model grants and this paper's
  /// model forbids ("requests must be served as they arrive") — every
  /// in-model strategy keeps the default.  Deferral-based strategies exist
  /// to make the cross-model comparison executable (experiment E18); the
  /// engine aborts if deferrals stall the whole system for 2^20 steps.
  [[nodiscard]] virtual bool defer_request(const AccessContext& ctx,
                                           const CacheView& cache) {
    (void)ctx;
    (void)cache;
    return false;
  }

  /// Display name, e.g. "S_LRU" or "sP[4,4]_FIFO".
  [[nodiscard]] virtual std::string name() const = 0;

  /// The stamp-kernel form of this strategy as last attached, if it has
  /// one: a spec BatchEngine::run simulates bit-identically to this object
  /// on the hook instantiation.  simulate() (which takes no observers) asks
  /// for it once attach() has run, then runs such a strategy on the kernel
  /// and calls nothing else on the object, so everything readable from it
  /// afterwards reads as after a hook run.  Shared and static-partition
  /// strategies whose policy a kernel implements have one; the default is
  /// none.
  [[nodiscard]] virtual std::optional<BatchStrategySpec> batch_spec() const {
    return std::nullopt;
  }
};

}  // namespace mcp
