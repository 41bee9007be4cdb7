// Value types and structure-of-arrays state of the engine's step loop
// (core/batch_engine.hpp, DESIGN.md §12).
//
// A *job* is one independent simulation — a (SimConfig, RequestSet,
// strategy) triple — and one BatchEngine simulates exactly one job.  Its
// state lives in flat arrays indexed by slot, core, region or page id, so
// every step is a few loads from contiguous memory instead of hash lookups
// and list nodes.
//
// The stamp kernels decide evictions from this state alone, which covers
// the shared cache S_A and static partitions sP^B_A under LRU, FIFO,
// CLOCK, LFU, MARK or LRU-SCAN (BatchStrategySpec, core/strategy.hpp).
// Each region keeps its non-free slots on a doubly-linked list, oldest
// first: a slot is linked at the newest end when its fetch starts and
// unlinked on release.  LRU, MARK and LRU-SCAN relink a slot there on every
// hit too, so their list is sorted by last use; FIFO and LFU never relink
// (LFU scans its region's slots for a victim instead), and CLOCK links a
// new slot just before its hand, so its list is the policy's ring.  The
// per-slot and per-region policy arrays below are sized only for the
// policies that read them.  Every other strategy
// (dynamic partitions, RANDOM, SLRU, MRU, randomized marking, FITF,
// adaptive adversary streams) runs as a CacheStrategy object on the hook
// instantiation of the same loop, which keeps one region of K slots and no
// lists, and reads requests from a RequestStream (core_len is then the
// pull bound and core_next counts pulls).  The independent differential
// oracle is tests/reference_engine.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/request.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace mcp {

/// One simulation job, ready to run.  `requests` is borrowed: the caller
/// keeps the RequestSet alive until the run completes.
struct SimJob {
  SimConfig config;
  const RequestSet* requests = nullptr;
  BatchStrategySpec strategy;
};

/// Status of one cache slot.
enum class BatchSlotStatus : std::uint8_t { kFree = 0, kFetching, kPresent };

/// Sentinel for page_slot entries: page not resident.
inline constexpr std::uint32_t kNoBatchSlot =
    std::numeric_limits<std::uint32_t>::max();

/// core_len of a core holding `requests` requests.  Throws ModelError past
/// 2^32 - 1 (the cursors are 32 bits), the error a stream core raises when
/// it pulls that many.
[[nodiscard]] std::uint32_t checked_core_len(std::size_t requests);

/// core_flags bits.
inline constexpr std::uint8_t kBatchCorePending = 0x1;  ///< has_pending
inline constexpr std::uint8_t kBatchCoreDone = 0x2;     ///< sequence drained

/// One job's state.  Invariants (enforced by BatchEngine::validate()):
///  * regions' slot ranges tile [0, K) in region order, so a slot's owning
///    region is implied by its index — the recency list and the free stack
///    of region r hold only slots of [region_slot_base[r],
///    region_slot_base[r] + region_size[r]);
///  * page_slot and (slot_page, slot_status) are a bijection: a
///    non-sentinel page_slot entry points at a non-free slot holding that
///    page, and vice versa;
///  * region r's free-stack segment holds exactly the region's free slots,
///    once each;
///  * in-flight entries are exactly the fetching slots;
///  * region occupancy equals the count of non-free slots in its range;
///  * in the stamp kernels, walking region r's list from its sentinel
///    visits each of the region's non-free slots once, with list_prev and
///    list_next inverse; in the hook instantiation every list is empty;
///  * the policy arrays are sized for the job's policy (empty otherwise);
///    under LRU-SCAN the list is sorted by last use and under MARK by
///    (marked, last use), so MARK's unmarked slots are its oldest prefix,
///    and MARK's marked count matches its slots; every LFU slot has a use;
///    CLOCK's hand is a slot on the region's list, or the region's
///    sentinel exactly when the list is empty;
///  * a core is done only once the feed is closed, and a parked step
///    (in_step) resumes at a live core whose cursor caught the feed end.
struct BatchState {
  // Immutable shape (from the job).
  std::uint32_t cache_size = 0;  ///< K
  std::uint32_t num_cores = 0;   ///< p
  Time tau = 0;
  Time max_steps = 0;
  SharedFetchMode mode = SharedFetchMode::kCountsAsFault;
  BatchStrategySpec::Kind kind = BatchStrategySpec::Kind::kShared;
  BatchPolicy policy = BatchPolicy::kLru;
  bool record_timeline = true;

  // Feed (BatchEngine::feed).
  PageId page_bound = 0;  ///< Page ids < page_bound; page_slot covers them.
  bool closed = false;    ///< No more requests will ever be appended.

  // Mutable scalars.
  Time now = 0;
  Time steps = 0;               ///< step-loop iterations executed
  std::uint32_t active_cores = 0;
  std::uint32_t fetching = 0;   ///< live entries in `inflight`

  // Mid-step stall: a step's preamble (fetch landing, step count) runs
  // once, cores before resume_core are already served, and the folded
  // fast-forward min accumulated so far is parked in next_time_partial.
  bool in_step = false;
  std::uint32_t resume_core = 0;
  Time next_time_partial = 0;

  // Slot arrays (size K).
  std::vector<PageId> slot_page;
  std::vector<BatchSlotStatus> slot_status;
  std::vector<Time> slot_ready;             ///< fetch completion time
  std::vector<std::uint32_t> free_stack;    ///< slot ids, segmented per
                                            ///< region like the slots
  std::vector<std::uint32_t> inflight;      ///< slot ids

  // Recency lists (size K + regions): node K + r is region r's sentinel,
  // list_next[K + r] its oldest slot and list_prev[K + r] its newest.  A
  // free slot's links are stale; only the walk from a sentinel counts.
  std::vector<std::uint32_t> list_prev;
  std::vector<std::uint32_t> list_next;

  // Policy state, keyed by slot or region like the arrays above and sized
  // only for the policies that read it (LRU and FIFO use none).
  std::vector<Time> slot_last_use;      ///< LFU, MARK, LRU-SCAN (size K)
  std::vector<Count> slot_uses;         ///< LFU (size K)
  std::vector<std::uint64_t> slot_mark; ///< MARK: epoch of the slot's mark
  std::vector<std::uint8_t> slot_referenced;  ///< CLOCK (size K)
  /// MARK: a slot is marked iff its slot_mark equals its region's epoch, so
  /// a phase reset clears every mark with one increment.
  std::vector<std::uint64_t> region_epoch;
  std::vector<std::uint32_t> region_marked;  ///< MARK: marked slots
  /// CLOCK: the hand's slot, or the region's sentinel while it is empty.
  std::vector<std::uint32_t> region_hand;

  // Page index (size >= page_bound): slot id or kNoBatchSlot.
  std::vector<std::uint32_t> page_slot;

  // Core arrays (size p).
  std::vector<Time> core_ready;
  std::vector<Time> core_finish;            ///< last request's finish time
  std::vector<const PageId*> core_seq;
  std::vector<std::uint32_t> core_len;
  std::vector<std::uint32_t> core_next;     ///< cursor into core_seq
  std::vector<PageId> core_pending;
  std::vector<std::uint8_t> core_flags;

  // Region arrays (size 1 for shared, p for static partitions).
  std::vector<std::uint32_t> region_size;
  std::vector<std::uint32_t> region_occ;       ///< present + fetching slots
  std::vector<std::uint32_t> region_slot_base; ///< first slot id
  std::vector<std::uint32_t> region_free_top;  ///< live free-stack entries
};

}  // namespace mcp
