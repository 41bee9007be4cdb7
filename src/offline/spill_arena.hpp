// Spillable storage for the out-of-core offline searches.
//
// The packed solvers' RAM ceiling is the StateInterner arena (every distinct
// state, stride words each) and, for PIF witness reconstruction, the retained
// per-layer fronts.  This module turns both into out-of-core structures:
//
//  * `SpillArena` — an append-only arena of fixed-stride `uint64_t` blocks,
//    stored in power-of-two-block segments.  Without a `StorageBudget` it is
//    a plain segmented heap arena (segmenting alone buys pointer stability:
//    `block()` results survive later appends, unlike the old
//    `std::vector::data()` arena).  With a budget, segments are mmap'd
//    MAP_SHARED from an unlinked temporary file; when resident bytes exceed
//    the cap, the least-recently-touched segments are dropped from RAM
//    (`madvise(MADV_DONTNEED)`), a dirty one — appended to since it was
//    last written back — after writing it back (`msync`).  The mapping
//    stays valid, so a later touch transparently reloads from disk and is
//    re-charged against the budget.  The append segment (the last) is
//    never evicted, so appends never fault it back in; the budget of at
//    least two segments leaves room for it and one faulted-in segment.  In
//    the searches the cold segments are
//    the Dial queue's settled prefix / finished PIF layers, which expansion
//    rarely revisits (only hash-collision dedup probes reach back).
//
//  * `RecordLog` — an append-once/read-back store of variable-length word
//    records (serialized PIF layers).  In RAM without a budget; with one,
//    records go straight to an unlinked temporary file via pwrite/pread and
//    cost no resident bytes.
//
// Both structures share `StorageBudget`, surface `bytes_in_ram` /
// `bytes_spilled` accounting for solver stats, and carry MCP_CHECKED
// validators (`SpillArena::validate` checks every spill-segment header
// against the arena's geometry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mcp {

/// RAM cap shared by the spillable structures of one solve.  `ram_bytes` is
/// the resident-segment budget in bytes (0 = unbounded: everything stays in
/// RAM and no backing files are created).  `dir` is where the unlinked
/// temporary spill files live ("" = TMPDIR or /tmp).  `segment_bytes` is the
/// spill granularity (0 = 1 MiB; tests use small segments to exercise
/// eviction on small instances).
struct StorageBudget {
  std::size_t ram_bytes = 0;
  std::string dir;
  std::size_t segment_bytes = 0;

  [[nodiscard]] bool active() const noexcept { return ram_bytes != 0; }
};

struct SpillArenaTestAccess;  // corruption-injection backdoor (tests only)

/// Append-only arena of fixed-stride `uint64_t` blocks with optional
/// file-backed spilling.  Block pointers are stable across appends but — in
/// budget mode — only until the next `block()`/`append()` call evicts the
/// segment; callers copy words out before touching other blocks (the
/// searches already do: expansion snapshots its state up front).
///
/// Not thread-safe: in budget mode even `block()` mutates residency
/// accounting, so one solve owns its arena.
class SpillArena {
 public:
  /// `stride`: words per block.  Blocks never straddle segments.
  explicit SpillArena(std::size_t stride, StorageBudget budget = {});
  ~SpillArena();

  SpillArena(const SpillArena&) = delete;
  SpillArena& operator=(const SpillArena&) = delete;

  /// Appends one `stride()`-word block; returns its dense index.
  std::uint32_t append(const std::uint64_t* words);

  /// The block at `index` — faults its segment back in under a budget.
  /// Without a budget this performs no bookkeeping writes at all (the LRU
  /// clock only matters when eviction is possible).
  [[nodiscard]] const std::uint64_t* block(std::uint32_t index) const noexcept {
    const Segment& seg = segments_[index >> log2_blocks_];
    if (spilling_) {
      if (!seg.resident) fault_in(seg);
      seg.last_touch = ++clock_;
    }
    return seg.data +
           static_cast<std::size_t>(index & block_mask_) * stride_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return num_blocks_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool spilling() const noexcept { return spilling_; }

  /// Pre-sizes the segment directory for `blocks` blocks (segments
  /// themselves are created lazily on append).
  void reserve(std::size_t blocks);

  /// Resident segment bytes currently charged against the budget (equals
  /// total data bytes when no budget is set).
  [[nodiscard]] std::size_t bytes_in_ram() const noexcept {
    return resident_bytes_;
  }
  /// High-water mark of bytes_in_ram().
  [[nodiscard]] std::size_t peak_bytes_in_ram() const noexcept {
    return peak_resident_bytes_;
  }
  /// Cumulative bytes written back to the spill file: a segment's bytes
  /// count each time it is evicted dirty, and not when a clean segment
  /// (unchanged since its last write-back) is dropped.
  [[nodiscard]] std::size_t bytes_spilled() const noexcept {
    return bytes_spilled_;
  }

  /// Deep structural check (DESIGN.md §10): geometry consistency (block
  /// count vs segment directory), residency accounting, and — in budget
  /// mode — every spill-segment header (magic, version, index, stride,
  /// block capacity) re-read from its mapping.  Throws ModelError naming
  /// the violated invariant.  Wrapped in MCP_CHECKED_ONLY at solver
  /// boundaries; callable directly from tests in any build.
  void validate() const;

 private:
  friend struct SpillArenaTestAccess;  ///< corruption injection (tests)

  struct Segment {
    std::uint64_t* data = nullptr;        ///< block storage (heap or mmap)
    std::unique_ptr<std::uint64_t[]> heap;  ///< owner in heap mode
    void* map = nullptr;                  ///< mmap base (header page) or null
    std::size_t map_bytes = 0;
    mutable bool resident = true;
    /// Appended to since its last write-back (budget mode); only a dirty
    /// segment is written back when evicted.
    mutable bool dirty = true;
    mutable std::uint64_t last_touch = 0;
  };

  void add_segment();
  void fault_in(const Segment& seg) const;
  void evict(const Segment& seg) const;
  /// Evicts least-recently-touched resident segments until the budget holds,
  /// never touching `keep` (the fault target) or the append segment.
  void enforce_budget(const Segment* keep) const;
  void charge(std::size_t bytes) const;

  std::size_t stride_;
  StorageBudget budget_;
  bool spilling_ = false;
  std::size_t log2_blocks_ = 0;       ///< blocks per segment = 1 << log2
  std::uint32_t block_mask_ = 0;
  std::size_t segment_data_bytes_ = 0;
  std::size_t segment_file_bytes_ = 0;  ///< page-aligned extent (budget mode)
  std::size_t num_blocks_ = 0;
  std::vector<Segment> segments_;
  int fd_ = -1;                       ///< unlinked spill file (budget mode)

  mutable std::uint64_t clock_ = 0;
  mutable std::size_t resident_bytes_ = 0;
  mutable std::size_t peak_resident_bytes_ = 0;
  mutable std::size_t bytes_spilled_ = 0;
};

/// Append-once store of variable-length `uint64_t` records (serialized PIF
/// layers).  Records are written in index order and read back individually;
/// with a budget they live only in the spill file.
class RecordLog {
 public:
  explicit RecordLog(StorageBudget budget = {});
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Appends a record; returns its index.
  std::size_t append(const std::uint64_t* words, std::size_t count);
  /// Reads record `index` into `out` (replacing its contents).
  void read(std::size_t index, std::vector<std::uint64_t>& out) const;

  [[nodiscard]] std::size_t size() const noexcept { return offsets_.size(); }
  [[nodiscard]] std::size_t record_words(std::size_t index) const noexcept {
    return lengths_[index];
  }
  [[nodiscard]] std::size_t bytes_in_ram() const noexcept;
  [[nodiscard]] std::size_t bytes_spilled() const noexcept {
    return bytes_spilled_;
  }

 private:
  StorageBudget budget_;
  bool spilling_ = false;
  int fd_ = -1;
  std::size_t file_words_ = 0;
  std::vector<std::size_t> offsets_;  ///< record -> word offset (file mode)
  std::vector<std::size_t> lengths_;  ///< record -> word count
  std::vector<std::vector<std::uint64_t>> records_;  ///< RAM mode storage
  std::size_t bytes_spilled_ = 0;
};

}  // namespace mcp
