// Reference eviction policies, kept for differential testing.
//
// These are the list/map implementations that policies/policies.hpp's flat
// arrays replaced: a std::list node and an unordered_map entry per tracked
// page (LRU adds a second map for last-use times), CLOCK a vector ring
// whose insertions and removals shift every later slot, and the scan
// policies an unordered_map they iterate.  The map-based Lemma-3
// controller is kept with them.  test_policy_differential.cpp holds every
// flat policy to its oracle decision for decision, and the flat Lemma-3
// controller to this one fault for fault.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/strategy.hpp"
#include "policies/eviction_policy.hpp"
#include "strategies/partition.hpp"

namespace mcp::testing::policy_oracle {

/// LRU: a recency list (front = most recent) and two maps.
class LruPolicy final : public EvictionPolicy {
 public:
  void reset() override {
    order_.clear();
    index_.clear();
    last_use_.clear();
  }
  void on_insert(PageId page, const AccessContext& ctx) override {
    MCP_REQUIRE(!index_.contains(page), "LRU: inserting tracked page");
    order_.push_front(page);
    index_[page] = order_.begin();
    last_use_[page] = ctx.now;
  }
  void on_hit(PageId page, const AccessContext& ctx) override {
    auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "LRU: touching untracked page");
    order_.splice(order_.begin(), order_, it->second);
    last_use_[page] = ctx.now;
  }
  void on_remove(PageId page) override {
    auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "LRU: removing untracked page");
    order_.erase(it->second);
    index_.erase(it);
    last_use_.erase(page);
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (evictable(*it)) return *it;
    }
    return kInvalidPage;
  }
  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return index_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return "LRU"; }

  [[nodiscard]] PageId least_recent() const {
    return order_.empty() ? kInvalidPage : order_.back();
  }
  [[nodiscard]] Time last_use(PageId page) const {
    auto it = last_use_.find(page);
    return it == last_use_.end() ? kTimeNever : it->second;
  }

 private:
  std::list<PageId> order_;
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
  std::unordered_map<PageId, Time> last_use_;
};

/// LRU by timestamp scan over a hash map.
class LruScanPolicy final : public EvictionPolicy {
 public:
  void reset() override { last_use_.clear(); }
  void on_insert(PageId page, const AccessContext& ctx) override {
    MCP_REQUIRE(last_use_.try_emplace(page, ctx.now).second,
                "LRU-SCAN: inserting tracked page");
  }
  void on_hit(PageId page, const AccessContext& ctx) override {
    const auto it = last_use_.find(page);
    MCP_REQUIRE(it != last_use_.end(), "LRU-SCAN: hit on untracked page");
    it->second = ctx.now;
  }
  void on_remove(PageId page) override {
    MCP_REQUIRE(last_use_.erase(page) == 1,
                "LRU-SCAN: removing untracked page");
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    PageId best = kInvalidPage;
    Time best_time = 0;
    for (const auto& [page, used] : last_use_) {
      if (!evictable(page)) continue;
      if (best == kInvalidPage || used < best_time ||
          (used == best_time && page < best)) {
        best = page;
        best_time = used;
      }
    }
    return best;
  }
  [[nodiscard]] std::size_t size() const override { return last_use_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return last_use_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return "LRU-SCAN"; }

 private:
  std::unordered_map<PageId, Time> last_use_;
};

/// FIFO (no touch, victim from the back) and MRU (touch on hit, victim
/// from the front) on a std::list.
template <bool kTouch, bool kMostRecent>
class ListPolicy final : public EvictionPolicy {
 public:
  explicit ListPolicy(std::string name) : name_(std::move(name)) {}
  void reset() override {
    order_.clear();
    index_.clear();
  }
  void on_insert(PageId page, const AccessContext& /*ctx*/) override {
    MCP_REQUIRE(!index_.contains(page), name_ + ": inserting tracked page");
    order_.push_front(page);
    index_[page] = order_.begin();
  }
  void on_hit(PageId page, const AccessContext& /*ctx*/) override {
    if constexpr (kTouch) {
      auto it = index_.find(page);
      MCP_REQUIRE(it != index_.end(), name_ + ": hit on untracked page");
      order_.splice(order_.begin(), order_, it->second);
    } else {
      (void)page;
    }
  }
  void on_remove(PageId page) override {
    auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), name_ + ": removing untracked page");
    order_.erase(it->second);
    index_.erase(it);
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    if constexpr (kMostRecent) {
      for (PageId page : order_) {
        if (evictable(page)) return page;
      }
    } else {
      for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        if (evictable(*it)) return *it;
      }
    }
    return kInvalidPage;
  }
  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return index_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  std::list<PageId> order_;
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
};

inline std::unique_ptr<EvictionPolicy> make_fifo() {
  return std::make_unique<ListPolicy<false, false>>("FIFO");
}
inline std::unique_ptr<EvictionPolicy> make_mru() {
  return std::make_unique<ListPolicy<true, true>>("MRU");
}

/// CLOCK on a vector ring: insertion at the hand and removal shift every
/// later slot, and every index entry past the slot moves with them.
class ClockPolicy final : public EvictionPolicy {
 public:
  void reset() override {
    ring_.clear();
    index_.clear();
    hand_ = 0;
  }
  void on_insert(PageId page, const AccessContext& /*ctx*/) override {
    MCP_REQUIRE(!index_.contains(page), "CLOCK: inserting tracked page");
    const std::size_t slot = ring_.empty() ? 0 : hand_;
    ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(slot),
                 Entry{page, /*referenced=*/true});
    for (auto& [tracked_page, tracked_slot] : index_) {
      if (tracked_slot >= slot) ++tracked_slot;
    }
    index_[page] = slot;
    if (!ring_.empty()) hand_ = (slot + 1) % ring_.size();
  }
  void on_hit(PageId page, const AccessContext& /*ctx*/) override {
    auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "CLOCK: hit on untracked page");
    ring_[it->second].referenced = true;
  }
  void on_remove(PageId page) override {
    auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "CLOCK: removing untracked page");
    const std::size_t slot = it->second;
    ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(slot));
    index_.erase(it);
    for (auto& [tracked_page, tracked_slot] : index_) {
      if (tracked_slot > slot) --tracked_slot;
    }
    if (ring_.empty()) {
      hand_ = 0;
    } else if (hand_ > slot || hand_ >= ring_.size()) {
      hand_ = (hand_ == 0 ? ring_.size() : hand_) - 1;
      hand_ %= ring_.size();
    }
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    if (ring_.empty()) return kInvalidPage;
    for (std::size_t visited = 0; visited < 2 * ring_.size(); ++visited) {
      Entry& entry = ring_[hand_];
      if (!evictable(entry.page)) {
        hand_ = (hand_ + 1) % ring_.size();
        continue;
      }
      if (entry.referenced) {
        entry.referenced = false;
        hand_ = (hand_ + 1) % ring_.size();
        continue;
      }
      return entry.page;
    }
    return kInvalidPage;
  }
  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return index_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return "CLOCK"; }

 private:
  struct Entry {
    PageId page = kInvalidPage;
    bool referenced = false;
  };
  std::vector<Entry> ring_;
  std::size_t hand_ = 0;
  std::unordered_map<PageId, std::size_t> index_;
};

/// LFU with LRU tie-breaking over a hash map.
class LfuPolicy final : public EvictionPolicy {
 public:
  void reset() override { entries_.clear(); }
  void on_insert(PageId page, const AccessContext& ctx) override {
    MCP_REQUIRE(entries_.try_emplace(page, Entry{1, ctx.now}).second,
                "LFU: inserting tracked page");
  }
  void on_hit(PageId page, const AccessContext& ctx) override {
    auto it = entries_.find(page);
    MCP_REQUIRE(it != entries_.end(), "LFU: hit on untracked page");
    ++it->second.uses;
    it->second.last_use = ctx.now;
  }
  void on_remove(PageId page) override {
    MCP_REQUIRE(entries_.erase(page) == 1, "LFU: removing untracked page");
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    PageId best = kInvalidPage;
    Count best_uses = 0;
    Time best_last = 0;
    for (const auto& [page, entry] : entries_) {
      if (!evictable(page)) continue;
      const bool better =
          best == kInvalidPage || entry.uses < best_uses ||
          (entry.uses == best_uses &&
           (entry.last_use < best_last ||
            (entry.last_use == best_last && page < best)));
      if (better) {
        best = page;
        best_uses = entry.uses;
        best_last = entry.last_use;
      }
    }
    return best;
  }
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return entries_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return "LFU"; }

 private:
  struct Entry {
    Count uses = 0;
    Time last_use = 0;
  };
  std::unordered_map<PageId, Entry> entries_;
};

/// SLRU on two std::lists and one map.
class SlruPolicy final : public EvictionPolicy {
 public:
  void reset() override {
    probation_.clear();
    protected_.clear();
    index_.clear();
    protected_count_ = 0;
  }
  void set_capacity(std::size_t cells) override {
    protected_cap_ = cells == 0 ? 1 : std::max<std::size_t>(1, cells / 2);
  }
  void on_insert(PageId page, const AccessContext& /*ctx*/) override {
    MCP_REQUIRE(!index_.contains(page), "SLRU: inserting tracked page");
    probation_.push_front(page);
    index_[page] = Node{probation_.begin(), false};
  }
  void on_hit(PageId page, const AccessContext& /*ctx*/) override {
    const auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "SLRU: hit on untracked page");
    Node& node = it->second;
    if (node.is_protected) {
      protected_.splice(protected_.begin(), protected_, node.where);
      node.where = protected_.begin();
      return;
    }
    probation_.erase(node.where);
    protected_.push_front(page);
    node.where = protected_.begin();
    node.is_protected = true;
    ++protected_count_;
    while (protected_count_ > protected_cap_) {
      const PageId demoted = protected_.back();
      protected_.pop_back();
      probation_.push_front(demoted);
      Node& moved = index_.at(demoted);
      moved.where = probation_.begin();
      moved.is_protected = false;
      --protected_count_;
    }
  }
  void on_remove(PageId page) override {
    const auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "SLRU: removing untracked page");
    if (it->second.is_protected) {
      protected_.erase(it->second.where);
      --protected_count_;
    } else {
      probation_.erase(it->second.where);
    }
    index_.erase(it);
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    for (auto it = probation_.rbegin(); it != probation_.rend(); ++it) {
      if (evictable(*it)) return *it;
    }
    for (auto it = protected_.rbegin(); it != protected_.rend(); ++it) {
      if (evictable(*it)) return *it;
    }
    return kInvalidPage;
  }
  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return index_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return "SLRU"; }

  [[nodiscard]] std::size_t protected_size() const noexcept {
    return protected_count_;
  }

 private:
  struct Node {
    std::list<PageId>::iterator where;
    bool is_protected = false;
  };
  std::list<PageId> probation_;
  std::list<PageId> protected_;
  std::unordered_map<PageId, Node> index_;
  std::size_t protected_cap_ = 1;
  std::size_t protected_count_ = 0;
};

/// Uniform random eviction: a page vector with swap-with-last removal and a
/// page -> slot map.
class RandomPolicy final : public EvictionPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 0xC0FFEE) : rng_(seed) {}
  void reset() override {
    pages_.clear();
    index_.clear();
  }
  void on_insert(PageId page, const AccessContext& /*ctx*/) override {
    MCP_REQUIRE(!index_.contains(page), "RANDOM: inserting tracked page");
    index_[page] = pages_.size();
    pages_.push_back(page);
  }
  void on_hit(PageId /*page*/, const AccessContext& /*ctx*/) override {}
  void on_remove(PageId page) override {
    auto it = index_.find(page);
    MCP_REQUIRE(it != index_.end(), "RANDOM: removing untracked page");
    const std::size_t slot = it->second;
    const PageId moved = pages_.back();
    pages_[slot] = moved;
    pages_.pop_back();
    if (moved != page) index_[moved] = slot;
    index_.erase(it);
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    std::vector<PageId> candidates;
    for (PageId page : pages_) {
      if (evictable(page)) candidates.push_back(page);
    }
    if (candidates.empty()) return kInvalidPage;
    return candidates[rng_.below(candidates.size())];
  }
  [[nodiscard]] std::size_t size() const override { return pages_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return index_.contains(page);
  }
  [[nodiscard]] std::string name() const override { return "RANDOM"; }

 private:
  Rng rng_;
  std::vector<PageId> pages_;
  std::unordered_map<PageId, std::size_t> index_;
};

/// Marking over a hash map, LRU or uniformly random among unmarked pages.
class MarkingPolicy final : public EvictionPolicy {
 public:
  explicit MarkingPolicy(bool randomized, std::uint64_t seed = 0xBADBEEF)
      : randomized_(randomized), rng_(seed) {}

  void reset() override {
    entries_.clear();
    marked_count_ = 0;
    phases_ = 0;
  }
  void on_insert(PageId page, const AccessContext& ctx) override {
    MCP_REQUIRE(entries_.try_emplace(page, Entry{true, ctx.now}).second,
                "MARK: inserting tracked page");
    ++marked_count_;
  }
  void on_hit(PageId page, const AccessContext& ctx) override {
    auto it = entries_.find(page);
    MCP_REQUIRE(it != entries_.end(), "MARK: hit on untracked page");
    if (!it->second.marked) {
      it->second.marked = true;
      ++marked_count_;
    }
    it->second.last_use = ctx.now;
  }
  void on_remove(PageId page) override {
    auto it = entries_.find(page);
    MCP_REQUIRE(it != entries_.end(), "MARK: removing untracked page");
    if (it->second.marked) --marked_count_;
    entries_.erase(it);
  }
  [[nodiscard]] PageId victim(const AccessContext& /*ctx*/,
                              const EvictablePredicate& evictable) override {
    if (entries_.empty()) return kInvalidPage;
    if (marked_count_ == entries_.size()) {
      for (auto& [page, entry] : entries_) entry.marked = false;
      marked_count_ = 0;
      ++phases_;
    }
    if (randomized_) {
      std::vector<PageId> unmarked;
      std::vector<PageId> marked;
      for (const auto& [page, entry] : entries_) {
        if (!evictable(page)) continue;
        (entry.marked ? marked : unmarked).push_back(page);
      }
      std::vector<PageId>& pool = unmarked.empty() ? marked : unmarked;
      if (pool.empty()) return kInvalidPage;
      std::sort(pool.begin(), pool.end());
      return pool[rng_.below(pool.size())];
    }
    PageId best_unmarked = kInvalidPage;
    Time best_unmarked_time = kTimeNever;
    PageId best_marked = kInvalidPage;
    Time best_marked_time = kTimeNever;
    for (const auto& [page, entry] : entries_) {
      if (!evictable(page)) continue;
      PageId& best = entry.marked ? best_marked : best_unmarked;
      Time& best_time = entry.marked ? best_marked_time : best_unmarked_time;
      if (best == kInvalidPage || entry.last_use < best_time ||
          (entry.last_use == best_time && page < best)) {
        best = page;
        best_time = entry.last_use;
      }
    }
    return best_unmarked != kInvalidPage ? best_unmarked : best_marked;
  }
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool contains(PageId page) const override {
    return entries_.contains(page);
  }
  [[nodiscard]] std::string name() const override {
    return randomized_ ? "MARK-RAND" : "MARK";
  }
  [[nodiscard]] Count phases() const noexcept { return phases_; }

 private:
  struct Entry {
    bool marked = false;
    Time last_use = 0;
  };
  bool randomized_;
  Rng rng_;
  std::unordered_map<PageId, Entry> entries_;
  std::size_t marked_count_ = 0;
  Count phases_ = 0;
};

/// The Lemma-3 dynamic partition over oracle LRU parts and an owner map.
class Lemma3DynamicPartition final : public CacheStrategy {
 public:
  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* /*requests*/) override {
    cache_size_ = config.cache_size;
    sizes_ = even_partition(cache_size_, num_cores);
    parts_.clear();
    for (std::size_t j = 0; j < num_cores; ++j) {
      parts_.push_back(std::make_unique<LruPolicy>());
    }
    occupancy_.assign(num_cores, 0);
    owner_.clear();
    total_occupancy_ = 0;
    changes_ = 0;
  }
  void on_hit(const AccessContext& ctx) override {
    const auto it = owner_.find(ctx.page);
    MCP_ASSERT_MSG(it != owner_.end(), "lemma3: hit on unowned page");
    parts_[it->second]->on_hit(ctx.page, ctx);
  }
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override {
    if (!needs_cell) return;
    const CoreId j = ctx.core;
    if (occupancy_[j] >= sizes_[j]) {
      if (total_occupancy_ < cache_size_) {
        CoreId donor = kInvalidCore;
        std::size_t best_slack = 0;
        for (CoreId c = 0; c < sizes_.size(); ++c) {
          const std::size_t slack = sizes_[c] - occupancy_[c];
          if (slack > best_slack) {
            best_slack = slack;
            donor = c;
          }
        }
        MCP_ASSERT_MSG(donor != kInvalidCore,
                       "lemma3: full parts but free cache");
        --sizes_[donor];
        ++sizes_[j];
        ++changes_;
      } else {
        const auto evictable = [&cache](PageId page) {
          return cache.contains(page);
        };
        CoreId donor = kInvalidCore;
        PageId victim = kInvalidPage;
        Time victim_time = kTimeNever;
        for (CoreId c = 0; c < parts_.size(); ++c) {
          if (occupancy_[c] == 0) continue;
          const PageId candidate = parts_[c]->victim(ctx, evictable);
          if (candidate == kInvalidPage) continue;
          const Time used = parts_[c]->last_use(candidate);
          if (donor == kInvalidCore || used < victim_time) {
            donor = c;
            victim = candidate;
            victim_time = used;
          }
        }
        MCP_REQUIRE(victim != kInvalidPage,
                    "lemma3: no evictable page anywhere (all reserved)");
        parts_[donor]->on_remove(victim);
        owner_.erase(victim);
        --occupancy_[donor];
        --total_occupancy_;
        if (donor != j) {
          --sizes_[donor];
          ++sizes_[j];
          ++changes_;
        }
        evictions.push_back(victim);
      }
    }
    parts_[j]->on_insert(ctx.page, ctx);
    owner_[ctx.page] = j;
    ++occupancy_[j];
    ++total_occupancy_;
  }
  [[nodiscard]] std::string name() const override { return "dP[lemma3]_LRU"; }

  [[nodiscard]] const Partition& sizes() const noexcept { return sizes_; }
  [[nodiscard]] Count partition_changes() const noexcept { return changes_; }

 private:
  std::vector<std::unique_ptr<LruPolicy>> parts_;
  Partition sizes_;
  std::vector<std::size_t> occupancy_;
  std::unordered_map<PageId, CoreId> owner_;
  std::size_t cache_size_ = 0;
  std::size_t total_occupancy_ = 0;
  Count changes_ = 0;
};

}  // namespace mcp::testing::policy_oracle
