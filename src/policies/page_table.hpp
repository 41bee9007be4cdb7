// Flat storage for the pages one eviction policy tracks.
//
// A policy manages one region of the cache, so it never tracks more pages
// than its region has cells.  Its storage is sized by that count, not by
// page ids: PageIndex maps a tracked page to a policy-chosen 32-bit value
// through a capacity-sized open-addressing table (linear probing,
// Fibonacci hashing, backward-shift deletion, load at most 1/2), so sparse
// or huge page ids cost nothing extra.  Two containers build on it:
//
//  * PageList<T> — an intrusive doubly-linked list of nodes in flat arrays
//    (the recency lists of LRU, FIFO, MRU and SLRU, the CLOCK ring), node
//    ids recycled through a free list;
//  * PageArray<T> — a dense array with swap-with-last removal (the scan
//    policies LFU, LRU-SCAN, Marking and Random), so a scan reads exactly
//    the tracked entries; best_evictable() is the ranked scan LFU, LRU-SCAN
//    and Marking's LRU tie-break pick their victims with.
//
// Storage is allocated by reserve() (EvictionPolicy::set_capacity calls it
// at attach and on every resize) and grows by doubling only when an insert
// finds it full, so a policy whose region never exceeds its reserved size
// does not allocate on the step loop's hot path (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace mcp {

/// Open-addressing map from a tracked page to a 32-bit value.
class PageIndex {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// Room for `keys` pages without a rehash.  Never shrinks.
  void reserve(std::size_t keys) {
    if (keys <= capacity()) return;
    std::size_t buckets = 8;
    while (buckets < 2 * keys) buckets *= 2;
    std::vector<Bucket> old(buckets);
    old.swap(buckets_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
    mask_ = buckets - 1;
    size_ = 0;
    for (const Bucket& bucket : old) {
      if (bucket.page != kInvalidPage) (void)insert(bucket.page, bucket.value);
    }
  }

  /// Pages the table holds without a rehash.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buckets_.size() / 2;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Forgets every page; keeps the storage.
  void clear() noexcept {
    std::fill(buckets_.begin(), buckets_.end(), Bucket{});
    size_ = 0;
  }

  /// The page's value, or kAbsent.
  [[nodiscard]] std::uint32_t find(PageId page) const noexcept {
    if (buckets_.empty()) return kAbsent;
    for (std::size_t i = home(page);; i = (i + 1) & mask_) {
      const Bucket& bucket = buckets_[i];
      if (bucket.page == page) return bucket.value;
      if (bucket.page == kInvalidPage) return kAbsent;
    }
  }

  /// Adds `page` with `value`; returns false (and changes nothing) if the
  /// page is already present.  Requires size() < capacity().
  [[nodiscard]] bool insert(PageId page, std::uint32_t value) {
    MCP_ASSERT(page != kInvalidPage && size_ < capacity());
    for (std::size_t i = home(page);; i = (i + 1) & mask_) {
      Bucket& bucket = buckets_[i];
      if (bucket.page == page) return false;
      if (bucket.page == kInvalidPage) {
        bucket = {page, value};
        ++size_;
        return true;
      }
    }
  }

  /// Rebinds a present page to `value`.
  void assign(PageId page, std::uint32_t value) {
    for (std::size_t i = home(page);; i = (i + 1) & mask_) {
      Bucket& bucket = buckets_[i];
      MCP_ASSERT(bucket.page != kInvalidPage);
      if (bucket.page == page) {
        bucket.value = value;
        return;
      }
    }
  }

  /// Removes `page` and returns its value, or kAbsent if it is absent.
  std::uint32_t erase(PageId page) noexcept {
    if (buckets_.empty()) return kAbsent;
    std::size_t hole = home(page);
    for (;; hole = (hole + 1) & mask_) {
      if (buckets_[hole].page == page) break;
      if (buckets_[hole].page == kInvalidPage) return kAbsent;
    }
    const std::uint32_t value = buckets_[hole].value;
    // Backward shift: pull later entries of the probe run into the hole
    // unless their home lies cyclically in (hole, next].
    for (std::size_t next = (hole + 1) & mask_;
         buckets_[next].page != kInvalidPage; next = (next + 1) & mask_) {
      const std::size_t from_home = (next - home(buckets_[next].page)) & mask_;
      if (from_home >= ((next - hole) & mask_)) {
        buckets_[hole] = buckets_[next];
        hole = next;
      }
    }
    buckets_[hole] = Bucket{};
    --size_;
    return value;
  }

 private:
  struct Bucket {
    PageId page = kInvalidPage;
    std::uint32_t value = 0;
  };

  [[nodiscard]] std::size_t home(PageId page) const noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{page} * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
};

/// Grows a container that is full before an insert: doubles, at least 4.
template <typename Container>
void grow_if_full(Container& container) {
  if (container.size() == container.capacity()) {
    container.reserve(std::max<std::size_t>(4, 2 * container.capacity()));
  }
}

/// Payload of nodes that carry nothing but their page.
struct NoPayload {};

/// Intrusive doubly-linked list of tracked pages over flat node arrays.
/// Node ids are stable while the page stays tracked; `front` is the end
/// pages are pushed to.
template <typename T = NoPayload>
class PageList {
 public:
  static constexpr std::uint32_t kNone = PageIndex::kAbsent;

  struct Node {
    PageId page = kInvalidPage;
    std::uint32_t prev = kNone;  ///< towards the front
    std::uint32_t next = kNone;  ///< towards the back
    [[no_unique_address]] T data{};
  };

  void reserve(std::size_t pages) {
    if (pages <= capacity()) return;
    index_.reserve(pages);
    nodes_.resize(pages);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  void clear() noexcept {
    index_.clear();
    front_ = back_ = free_ = kNone;
    used_ = 0;
  }

  [[nodiscard]] std::uint32_t find(PageId page) const noexcept {
    return index_.find(page);
  }
  [[nodiscard]] Node& operator[](std::uint32_t id) noexcept {
    return nodes_[id];
  }
  [[nodiscard]] const Node& operator[](std::uint32_t id) const noexcept {
    return nodes_[id];
  }
  [[nodiscard]] std::uint32_t front() const noexcept { return front_; }
  [[nodiscard]] std::uint32_t back() const noexcept { return back_; }

  /// Tracks `page` in a fresh node linked just before `at` (kNone: at the
  /// back) and returns the node; kNone if the page is already tracked.
  std::uint32_t insert_before(std::uint32_t at, PageId page, T data = {}) {
    grow_if_full(*this);
    std::uint32_t id = free_;
    if (id != kNone) {
      free_ = nodes_[id].next;
    } else {
      id = used_++;
    }
    if (!index_.insert(page, id)) {
      nodes_[id].next = free_;
      free_ = id;
      return kNone;
    }
    nodes_[id] = Node{page, kNone, kNone, data};
    link_before(at, id);
    return id;
  }
  std::uint32_t push_front(PageId page, T data = {}) {
    return insert_before(front_, page, data);
  }

  /// Moves a tracked node to the front.
  void move_to_front(std::uint32_t id) noexcept {
    if (id == front_) return;
    unlink(id);
    link_before(front_, id);
  }

  /// Untracks `page` and frees its node; returns false if it was absent.
  bool erase(PageId page) noexcept {
    const std::uint32_t id = index_.erase(page);
    if (id == kNone) return false;
    unlink(id);
    nodes_[id].page = kInvalidPage;
    nodes_[id].next = free_;
    free_ = id;
    return true;
  }

 private:
  void link_before(std::uint32_t at, std::uint32_t id) noexcept {
    Node& node = nodes_[id];
    node.next = at;
    node.prev = at == kNone ? back_ : nodes_[at].prev;
    (node.prev == kNone ? front_ : nodes_[node.prev].next) = id;
    (at == kNone ? back_ : nodes_[at].prev) = id;
  }
  void unlink(std::uint32_t id) noexcept {
    const Node& node = nodes_[id];
    (node.prev == kNone ? front_ : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? back_ : nodes_[node.next].prev) = node.prev;
  }

  PageIndex index_;
  std::vector<Node> nodes_;
  std::uint32_t front_ = kNone;
  std::uint32_t back_ = kNone;
  std::uint32_t free_ = kNone;  ///< freed nodes, chained through `next`
  std::uint32_t used_ = 0;      ///< nodes ever handed out since clear()
};

/// Dense array of tracked entries (T must have a `PageId page` member):
/// removal moves the last entry into the hole, so entries() is exactly the
/// tracked set, in insertion order up to those moves.
template <typename T>
class PageArray {
 public:
  void reserve(std::size_t pages) {
    if (pages <= capacity()) return;
    entries_.reserve(pages);
    index_.reserve(entries_.capacity());
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return entries_.capacity();
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  void clear() noexcept {
    index_.clear();
    entries_.clear();
  }

  /// The page's entry, or nullptr if it is untracked.
  [[nodiscard]] T* find(PageId page) noexcept {
    const std::uint32_t slot = index_.find(page);
    return slot == PageIndex::kAbsent ? nullptr : &entries_[slot];
  }
  [[nodiscard]] const T* find(PageId page) const noexcept {
    const std::uint32_t slot = index_.find(page);
    return slot == PageIndex::kAbsent ? nullptr : &entries_[slot];
  }
  [[nodiscard]] std::span<T> entries() noexcept { return entries_; }
  [[nodiscard]] std::span<const T> entries() const noexcept { return entries_; }

  /// Appends `entry`; returns false if its page is already tracked.
  bool insert(const T& entry) {
    grow_if_full(*this);
    if (!index_.insert(entry.page, static_cast<std::uint32_t>(size()))) {
      return false;
    }
    entries_.push_back(entry);
    return true;
  }

  /// Untracks `page`; returns false if it was absent.
  bool erase(PageId page) {
    const std::uint32_t slot = index_.erase(page);
    if (slot == PageIndex::kAbsent) return false;
    if (slot + 1 != entries_.size()) {
      entries_[slot] = entries_.back();
      index_.assign(entries_[slot].page, slot);
    }
    entries_.pop_back();
    return true;
  }

 private:
  PageIndex index_;
  std::vector<T> entries_;
};

/// The victim of a ranked scan: the first entry under the strict total
/// order `before` among the entries whose page `evictable` accepts, or
/// nullptr if none does.  The entries are ranked without the predicate and
/// the predicate is asked about the winner alone — one indirect call per
/// victim, not one per entry.  Only when that page is reserved (its fetch
/// still in flight) does a second scan rank the evictable entries.  The
/// result is the same either way: the overall winner, when evictable, also
/// wins among the evictable entries.
template <typename T, typename Before, typename Evictable>
[[nodiscard]] T* best_evictable(std::span<T> entries, Before before,
                                const Evictable& evictable) {
  T* best = nullptr;
  for (T& entry : entries) {
    if (best == nullptr || before(entry, *best)) best = &entry;
  }
  if (best == nullptr || evictable(best->page)) return best;
  best = nullptr;
  for (T& entry : entries) {
    if (evictable(entry.page) && (best == nullptr || before(entry, *best))) {
      best = &entry;
    }
  }
  return best;
}

}  // namespace mcp
