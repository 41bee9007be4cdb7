// Value types and structure-of-arrays state of the batch kernel
// (core/batch_engine.hpp, DESIGN.md §12).
//
// A *job* is one independent simulation — a (SimConfig, RequestSet,
// strategy) triple — and one BatchEngine simulates exactly one job.  Its
// state lives in flat arrays indexed by slot, core, region or page id, so
// every step is a few loads from contiguous memory instead of virtual
// policy dispatch, hash lookups and list nodes.
//
// Only strategies whose decisions are a pure function of this packed state
// are batchable: the shared cache S_A and static partitions sP^B_A under LRU
// or FIFO (BatchStrategySpec).  Recency/insertion order is represented by a
// monotonic stamp written into slot_stamp on insert (LRU and FIFO) and on
// hit (LRU only); the victim is the minimum-stamp present slot of the
// faulting region, which reproduces the scalar policies' list order exactly
// because stamps are unique.  Fetching and free slots hold high-tagged keys
// (batch_engine.cpp) so the victim scan is a branchless min over one array.
// Everything else (dynamic partitions, marking, adaptive adversary streams)
// keeps the scalar Simulator — which is also retained as the differential
// oracle for the kernel (tests/core/test_batch_differential.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/request.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace mcp {

/// Eviction policies the batch kernel can express with stamp arrays.
enum class BatchPolicy : std::uint8_t { kLru, kFifo };

/// Maps a policy display name to its batched counterpart.  Exact-name match
/// ("LRU", "FIFO") on purpose: variants such as "LRU-SCAN" must not silently
/// take the batched path.
[[nodiscard]] inline std::optional<BatchPolicy> batch_policy_from_name(
    std::string_view name) noexcept {
  if (name == "LRU") return BatchPolicy::kLru;
  if (name == "FIFO") return BatchPolicy::kFifo;
  return std::nullopt;
}

/// Value-type description of a batchable strategy (no factories or virtual
/// dispatch: a SimJob must be shippable to any worker).
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

/// core_flags bits.
inline constexpr std::uint8_t kBatchCorePending = 0x1;  ///< has_pending
inline constexpr std::uint8_t kBatchCoreDone = 0x2;     ///< sequence drained

/// One job's state.  Invariants (enforced by BatchEngine::validate()):
///  * regions' slot ranges tile [0, K) in region order, so a slot's owning
///    region is implied by its index — the victim scan and the free stack
///    of region r touch only [region_slot_base[r],
///    region_slot_base[r] + region_size[r]);
///  * page_slot and (slot_page, slot_status) are a bijection: a
///    non-sentinel page_slot entry points at a non-free slot holding that
///    page, and vice versa;
///  * region r's free-stack segment holds exactly the region's free slots,
///    once each;
///  * in-flight entries are exactly the fetching slots;
///  * region occupancy equals the count of non-free slots in its range;
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
  std::uint64_t stamp = 0;      ///< monotonic recency/insertion counter
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
  std::vector<std::uint64_t> slot_stamp;    ///< eviction key: stamp, tagged
                                            ///< while fetching/free
  std::vector<std::uint32_t> free_stack;    ///< slot ids, segmented per
                                            ///< region like the slots
  std::vector<std::uint32_t> inflight;      ///< slot ids

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
