// Concrete eviction policies.
//
// Online: LRU, FIFO, CLOCK, LFU, MRU, Random, LRU-Marking.
// Offline: FITF (Belady's furthest-in-the-future, via FutureOracle).
//
// The paper's bounds reference LRU (its running example of a marking /
// conservative algorithm), FIFO (conservative), marking algorithms as a
// class, and FITF; the remaining policies round out the shootout benchmark
// (experiment E12) with the classics every paging suite is expected to have.
//
// The online policies keep their pages in flat arrays (policies/
// page_table.hpp): recency lists and the CLOCK ring are intrusive lists of
// node ids, the scan policies a dense entry array, all behind a
// capacity-sized open-addressing page index.  set_capacity() sizes them,
// so a policy whose region stays within its capacity never allocates after
// attach; more pages than that (a part over budget while a shrink is
// pending, or a policy driven without set_capacity) grow the arrays by
// doubling.  Memory is O(pages tracked), whatever the page ids.  The
// list/map implementations these replaced are the differential oracles in
// tests/reference_policies.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "policies/eviction_policy.hpp"
#include "policies/future_oracle.hpp"
#include "policies/page_table.hpp"

namespace mcp {

/// Least Recently Used.  Victim = least recently requested evictable page.
class LruPolicy final : public EvictionPolicy {
 public:
  void reset() override { order_.clear(); }
  void set_capacity(std::size_t cells) override { order_.reserve(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return order_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return order_.find(page) != Order::kNone;
  }
  [[nodiscard]] std::string name() const override { return "LRU"; }
  [[nodiscard]] std::optional<BatchPolicy> batch_policy() const override {
    return BatchPolicy::kLru;
  }

  /// Least recently used tracked page regardless of evictability (used by
  /// the Lemma-3 dynamic-partition controller to find the global LRU page).
  [[nodiscard]] PageId least_recent() const {
    return order_.empty() ? kInvalidPage : order_[order_.back()].page;
  }
  /// Timestep of the page's last use; kTimeNever if untracked.
  [[nodiscard]] Time last_use(PageId page) const;

 private:
  using Order = PageList<Time>;  // front = most recent; data = last use
  Order order_;
};

/// LRU implemented by timestamp scan instead of an intrusive list — the
/// victim-selection data-structure ablation (DESIGN.md): O(1) bookkeeping
/// per access, O(size) victim selection.  Semantically identical to
/// LruPolicy whenever access timestamps are unique (always true for a
/// single core); with simultaneous same-step accesses ties break by page id
/// instead of touch order.
class LruScanPolicy final : public EvictionPolicy {
 public:
  void reset() override { entries_.clear(); }
  void set_capacity(std::size_t cells) override { entries_.reserve(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return entries_.find(page) != nullptr;
  }
  [[nodiscard]] std::string name() const override { return "LRU-SCAN"; }
  [[nodiscard]] std::optional<BatchPolicy> batch_policy() const override {
    return BatchPolicy::kLruScan;
  }

 private:
  struct Entry {
    PageId page = kInvalidPage;
    Time last_use = 0;
  };
  PageArray<Entry> entries_;
};

/// First-In First-Out.  Victim = evictable page resident the longest.
class FifoPolicy final : public EvictionPolicy {
 public:
  void reset() override { order_.clear(); }
  void set_capacity(std::size_t cells) override { order_.reserve(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId /*page*/, const AccessContext& /*ctx*/) override {}
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return order_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return order_.find(page) != PageList<>::kNone;
  }
  [[nodiscard]] std::string name() const override { return "FIFO"; }
  [[nodiscard]] std::optional<BatchPolicy> batch_policy() const override {
    return BatchPolicy::kFifo;
  }

 private:
  PageList<> order_;  // front = newest arrival
};

/// CLOCK (second-chance).  A circular hand sweeps pages; referenced bits are
/// cleared on the way and the first evictable page with a clear bit is the
/// victim.
class ClockPolicy final : public EvictionPolicy {
 public:
  void reset() override;
  void set_capacity(std::size_t cells) override { ring_.reserve(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return ring_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return ring_.find(page) != Ring::kNone;
  }
  [[nodiscard]] std::string name() const override { return "CLOCK"; }
  [[nodiscard]] std::optional<BatchPolicy> batch_policy() const override {
    return BatchPolicy::kClock;
  }

 private:
  // The ring in list order from front to back, wrapping around; data = the
  // referenced bit.  The hand is a node of the ring.
  using Ring = PageList<bool>;
  [[nodiscard]] std::uint32_t after(std::uint32_t node) const noexcept {
    const std::uint32_t next = ring_[node].next;
    return next == Ring::kNone ? ring_.front() : next;
  }
  Ring ring_;
  std::uint32_t hand_ = Ring::kNone;
};

/// Least Frequently Used, with LRU tie-breaking.
class LfuPolicy final : public EvictionPolicy {
 public:
  void reset() override { entries_.clear(); }
  void set_capacity(std::size_t cells) override { entries_.reserve(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return entries_.find(page) != nullptr;
  }
  [[nodiscard]] std::string name() const override { return "LFU"; }
  [[nodiscard]] std::optional<BatchPolicy> batch_policy() const override {
    return BatchPolicy::kLfu;
  }

 private:
  struct Entry {
    PageId page = kInvalidPage;
    Count uses = 0;
    Time last_use = 0;
  };
  PageArray<Entry> entries_;
};

/// Most Recently Used (good for cyclic scans longer than the cache; included
/// as the textbook anti-LRU baseline).
class MruPolicy final : public EvictionPolicy {
 public:
  void reset() override { order_.clear(); }
  void set_capacity(std::size_t cells) override { order_.reserve(cells); }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return order_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return order_.find(page) != PageList<>::kNone;
  }
  [[nodiscard]] std::string name() const override { return "MRU"; }

 private:
  PageList<> order_;  // front = most recent
};

/// Segmented LRU: a probation segment absorbs new arrivals; a hit promotes
/// the page into a protected segment capped at half the region (classic
/// SLRU).  Scan-resistant: a one-shot sweep churns probation but cannot
/// displace the protected hot set.
class SlruPolicy final : public EvictionPolicy {
 public:
  void reset() override;
  void set_capacity(std::size_t cells) override {
    protected_cap_ = cells == 0 ? 1 : std::max<std::size_t>(1, cells / 2);
    probation_.reserve(cells);
    protected_.reserve(protected_cap_ + 1);
  }
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override {
    return probation_.size() + protected_.size();
  }
  [[nodiscard]] bool contains(PageId page) const override {
    return probation_.find(page) != PageList<>::kNone ||
           protected_.find(page) != PageList<>::kNone;
  }
  [[nodiscard]] std::string name() const override { return "SLRU"; }

  /// Pages currently in the protected segment (for tests).
  [[nodiscard]] std::size_t protected_size() const noexcept {
    return protected_.size();
  }

 private:
  void demote_if_needed();

  PageList<> probation_;  // front = most recent
  PageList<> protected_;  // front = most recent
  std::size_t protected_cap_ = 1;
};

/// Uniform random eviction (seeded, reproducible).
class RandomPolicy final : public EvictionPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 0xC0FFEE) : rng_(seed) {}
  void reset() override { pages_.clear(); }
  void set_capacity(std::size_t cells) override;
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId /*page*/, const AccessContext& /*ctx*/) override {}
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return pages_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return pages_.find(page) != nullptr;
  }
  [[nodiscard]] std::string name() const override { return "RANDOM"; }

 private:
  struct Entry {
    PageId page = kInvalidPage;
  };
  Rng rng_;
  PageArray<Entry> pages_;  // the draw's order: insertion, up to moves
  std::vector<PageId> candidates_;  // victim() scratch
};

/// Generic marking algorithm.  Requests mark their page; when every tracked
/// page is marked a new phase begins and all marks are cleared.  Any marking
/// algorithm faults at most k times per phase (the paper's Lemma 1 upper
/// bound applies to it).  Victim selection among unmarked pages is either
/// deterministic (LRU tie-break) or uniformly random — the latter is the
/// classic RANDOMIZED MARKING algorithm (H_k-competitive sequentially).
class MarkingPolicy final : public EvictionPolicy {
 public:
  enum class TieBreak { kLru, kRandom };

  explicit MarkingPolicy(TieBreak tie_break = TieBreak::kLru,
                         std::uint64_t seed = 0xBADBEEF)
      : tie_break_(tie_break), rng_(seed) {}

  void reset() override;
  void set_capacity(std::size_t cells) override;
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId page, const AccessContext& ctx) override;
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return entries_.find(page) != nullptr;
  }
  [[nodiscard]] std::string name() const override {
    return tie_break_ == TieBreak::kLru ? "MARK" : "MARK-RAND";
  }
  /// The LRU tie-break only: randomized marking stays an object.
  [[nodiscard]] std::optional<BatchPolicy> batch_policy() const override {
    if (tie_break_ == TieBreak::kLru) return BatchPolicy::kMark;
    return std::nullopt;
  }

  /// Number of phase resets so far (exposed for the phase-bound tests).
  [[nodiscard]] Count phases() const noexcept { return phases_; }

 private:
  struct Entry {
    PageId page = kInvalidPage;
    bool marked = false;
    Time last_use = 0;
  };
  TieBreak tie_break_;
  Rng rng_;
  PageArray<Entry> entries_;
  std::vector<PageId> unmarked_;  // victim() scratch (randomized tie-break)
  std::vector<PageId> marked_;
  std::size_t marked_count_ = 0;
  Count phases_ = 0;
};

/// Furthest-In-The-Future (Belady), offline.  Victim = evictable page whose
/// next use — min over cores, per the oracle — is furthest away; pages never
/// used again rank furthest of all.  Optimal for p=1; *not* optimal for
/// multicore paging when tau > K/p (paper, Section 4), which experiment E7
/// reproduces.
class FitfPolicy final : public EvictionPolicy {
 public:
  /// `oracle` is shared with the owning strategy, which keeps its positions
  /// current; not owned, must outlive the policy.
  explicit FitfPolicy(const FutureOracle* oracle);
  void reset() override;
  void on_insert(PageId page, const AccessContext& ctx) override;
  void on_hit(PageId /*page*/, const AccessContext& /*ctx*/) override {}
  void on_remove(PageId page) override;
  [[nodiscard]] PageId victim(const AccessContext& ctx,
                              const EvictablePredicate& evictable) override;
  [[nodiscard]] std::size_t size() const override { return pages_.size(); }
  [[nodiscard]] bool contains(PageId page) const override;
  [[nodiscard]] std::string name() const override { return "FITF"; }

 private:
  const FutureOracle* oracle_;
  std::vector<PageId> pages_;  // sorted, small: scan is fine and deterministic
};

}  // namespace mcp
