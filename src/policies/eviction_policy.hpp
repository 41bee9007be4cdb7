// Eviction-policy interface.
//
// In the paper's taxonomy a cache strategy = (partition policy, eviction
// policy A).  An EvictionPolicy instance manages *one region* of the cache:
// the whole cache for shared strategies (S_A), or one core's part for
// partitioned strategies (sP^B_A / dP^D_A, one instance per part).  The
// policy tracks the pages of its region and ranks them for eviction; it
// never touches the cache itself.
//
// victim() takes an `evictable` predicate because a page whose cell is
// reserved (fetch in flight) cannot be evicted under the model; policies
// must return their best-ranked page among the evictable ones.
//
// The online policies keep their pages in flat arrays sized by
// set_capacity() (policies/page_table.hpp), so per-policy memory is
// O(cells), whatever the page ids, and a region that stays within its
// capacity never allocates after attach.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "core/events.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace mcp {

/// Returns true iff the page may be evicted right now.
///
/// A non-owning, non-allocating reference to a `bool(PageId)` callable
/// (function_ref): victim() runs on every fault, and a std::function here
/// would pay type-erasure allocation/indirection per call.  The referenced
/// callable must outlive the predicate — passing a lambda directly at a
/// victim() call site is fine (temporaries live to the end of the full
/// expression); storing a predicate built from a temporary is not.
class EvictablePredicate {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EvictablePredicate> &&
                std::is_invocable_r_v<bool, const F&, PageId>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design.
  EvictablePredicate(const F& fn) noexcept
      : obj_(&fn), call_([](const void* obj, PageId page) {
          return static_cast<bool>((*static_cast<const F*>(obj))(page));
        }) {}

  bool operator()(PageId page) const { return call_(obj_, page); }

 private:
  const void* obj_;
  bool (*call_)(const void*, PageId);
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Forget all tracked pages (start of a run).
  virtual void reset() = 0;

  /// Hints how many cells this policy's region holds.  Strategies call it
  /// after reset() and again whenever the region is resized (dynamic
  /// partitions).  The online policies reserve storage for that many
  /// pages (never shrinking it; more pages grow it by doubling), and
  /// segment-structured ones (SLRU) size their segments from it.
  virtual void set_capacity(std::size_t cells) { (void)cells; }

  /// `page` entered this policy's region (it faulted in).  `ctx` is the
  /// faulting request.
  virtual void on_insert(PageId page, const AccessContext& ctx) = 0;

  /// `page` was requested and hit in this region.
  virtual void on_hit(PageId page, const AccessContext& ctx) = 0;

  /// `page` left the region (evicted, or migrated by a repartition).
  virtual void on_remove(PageId page) = 0;

  /// Best eviction candidate among tracked pages with evictable(page).
  /// Returns kInvalidPage if no tracked page is evictable.  Does not remove
  /// the page — callers follow up with on_remove().
  [[nodiscard]] virtual PageId victim(const AccessContext& ctx,
                                      const EvictablePredicate& evictable) = 0;

  /// Number of tracked pages.
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual bool contains(PageId page) const = 0;

  /// Short display name ("LRU", "FIFO", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// The stamp-kernel policy that decides exactly as this object does
  /// (core/batch_engine.hpp), if there is one.  Only the src/policies
  /// classes the kernels implement override it, so a wrapper or a test
  /// oracle that reuses a display name keeps running as an object.
  [[nodiscard]] virtual std::optional<BatchPolicy> batch_policy() const {
    return std::nullopt;
  }
};

/// Factory producing fresh policy instances — partitioned strategies need
/// one instance per part, so strategies take factories, not instances.
using PolicyFactory = std::function<std::unique_ptr<EvictionPolicy>()>;

}  // namespace mcp
