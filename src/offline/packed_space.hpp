// Packed transition system — the expansion kernel behind every offline
// search (FTF, PIF and makespan): src/offline's one implementation of the
// paper's step rule.
//
// State layout, `state_words()` `uint64_t` words per state:
//
//   words[0 .. cache_words)             cache-contents bitset over the page
//                                       universe (present + in flight);
//                                       page ids < 128, so 1–2 words
//   words[cache_words + j/2], lane j%2  core j's word, one uint32 per core:
//                                       (pos << 8) | fetch
//
// `pos` is the core's next request index (< 2^24) and `fetch` the remaining
// blocked steps (<= tau <= 255).  The constructor checks these bounds and
// the core count, and throws InputError naming the bound an instance
// exceeds; no solver falls back to another search.
//
// expand() enumerates the step the way the heap-backed oracle
// (tests/reference_offline.hpp) does: cores in logical order, each faulting
// core's victims in ascending page order.  It emits the first occurrence of
// every (successor, faulted cores) outcome of the oracle's enumeration, in
// the oracle's order, and skips most later repeats.  Repeats arise because
// the victims of one step form an ordered tuple: when several cores evict
// pages that no core requests this step, every ordering of the same victim
// set reaches the same successor.  Under VictimRule::kAllPages, once a core
// takes such an unrequested victim v, later cores of the step skip the
// unrequested candidates below v + 1; a requested victim leaves the bound as
// it is.  A skipped branch repeats an earlier one: swap its two out-of-order
// victims between their cores.  Neither page is requested this step, so no
// hit turns into a fault, the swapped branch is valid, reaches the same
// successor with the same faulting cores, and comes first in ascending
// order.  Every search keeps only an outcome's first occurrence from one
// expansion (a repeat carries the same fault vector), so ids, distances,
// parents, schedules and search counters are unchanged.  kFitfPerSequence
// keeps the full enumeration: its per-core candidates depend on the cores'
// positions, so the swap can leave its candidate sets.
//
// The kernel allocates nothing in steady state: the caller provides a
// reusable StepScratch (the library's caller-provided-buffer contract),
// membership tests are bitset probes, victim enumeration iterates set bits
// of an on-stack word snapshot, and outcomes are emitted into a sink the
// expansion is templated over, so the per-outcome relaxation inlines into
// the kernel (expansion is the searches' innermost loop, where even a
// function_ref's indirect call per outcome is measurable).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/types.hpp"
#include "offline/instance.hpp"

namespace mcp {

namespace detail {

inline bool test_bit(const std::uint64_t* words, PageId page) noexcept {
  return (words[page >> 6] >> (page & 63u)) & 1u;
}
inline void set_bit(std::uint64_t* words, PageId page) noexcept {
  words[page >> 6] |= std::uint64_t{1} << (page & 63u);
}
inline void clear_bit(std::uint64_t* words, PageId page) noexcept {
  words[page >> 6] &= ~(std::uint64_t{1} << (page & 63u));
}

}  // namespace detail

/// One admissible outcome of a timestep, viewed over scratch-owned storage.
/// Both spans/pointers are valid only for the duration of the emit call.
struct PackedOutcome {
  const std::uint64_t* next;            ///< successor state words
  std::uint32_t faulted_cores = 0;      ///< bitmask of cores that faulted
  std::span<const PageId> evictions;    ///< victims, faulting-core order
                                        ///< (kInvalidPage = free-cell fault)
  [[nodiscard]] Count fault_count() const noexcept {
    return static_cast<Count>(popcount64(faulted_cores));
  }
};

class PackedTransitionSystem {
 public:
  static constexpr PageId kMaxUniverse = 128;        ///< two bitset words
  static constexpr std::uint32_t kMaxPosition = (1u << 24) - 1;
  static constexpr Time kMaxTau = 255;
  static constexpr std::size_t kMaxCores = 32;       ///< faulted_cores mask
  static constexpr std::size_t kMaxCacheWords = kMaxUniverse / 64;
  static constexpr std::size_t kMaxStateWords = kMaxCacheWords + kMaxCores / 2;

  /// True iff the instance fits the packed encoding (page-id, sequence
  /// length, tau and core-count bounds).
  [[nodiscard]] static bool supports(const OfflineInstance& instance);

  /// Throws ModelError for a malformed instance (OfflineInstance::validate)
  /// and InputError, naming the bound and the instance's value, for one
  /// outside the packed encoding.
  PackedTransitionSystem(const OfflineInstance& instance, VictimRule rule);

  /// Words per packed state.
  [[nodiscard]] std::size_t state_words() const noexcept { return stride_; }
  [[nodiscard]] std::size_t num_cores() const noexcept { return p_; }
  [[nodiscard]] const OfflineInstance& instance() const noexcept {
    return *instance_;
  }

  /// Writes the initial state (empty cache, pos = fetch = 0) to `out`.
  void initial(std::uint64_t* out) const;

  /// All requests served (in-flight tails don't matter for fault counts).
  [[nodiscard]] bool is_terminal(const std::uint64_t* state) const;

  /// Reusable expansion scratch — one per thread, handed to every expand().
  struct StepScratch {
    std::array<std::uint64_t, kMaxStateWords> work{};  ///< mutable state copy
    std::array<std::uint64_t, kMaxCacheWords> locked{};     ///< in flight
    std::array<std::uint64_t, kMaxCacheWords> requested{};  ///< this step
    std::vector<PageId> evictions;  ///< per-branch victim stack
  };

  /// Invokes `sink(const PackedOutcome&)` once per admissible outcome of the
  /// next timestep (first occurrences only under kAllPages, see above).
  /// Copies `state` into `scratch` up front, so `state` may point into an
  /// interner arena that the sink mutates (relaxation interns successors).
  template <class Sink>
  void expand(const std::uint64_t* state, StepScratch& scratch,
              const Sink& sink) const {
    // Word loops, not library calls: states are a few words long.
    std::uint64_t* work = scratch.work.data();
    for (std::size_t w = 0; w < stride_; ++w) work[w] = state[w];
    scratch.locked = {};
    scratch.requested = {};
    scratch.evictions.clear();
    std::size_t fill = 0;
    for (std::size_t w = 0; w < cache_words_; ++w) {
      fill += static_cast<std::size_t>(popcount64(work[w]));
    }
    // Pages still in flight at the start of the step are locked: not
    // hit-able, not evictable (the paper's reserved-cell convention).  Every
    // other unfinished core requests its next page.
    for (CoreId j = 0; j < p_; ++j) {
      const std::uint32_t word = core_word(work, j);
      const std::uint32_t pos = word >> 8;
      if ((word & 0xFFu) > 0) {
        MCP_ASSERT(pos > 0);
        detail::set_bit(scratch.locked.data(), (*seqs_[j])[pos - 1]);
      } else if (pos < seqs_[j]->size()) {
        detail::set_bit(scratch.requested.data(), (*seqs_[j])[pos]);
      }
    }
    expand_core(0, scratch, /*faulted=*/0, fill, /*bar=*/0, sink);
  }

  /// Core-word accessors, exposed for the solvers and tests.
  [[nodiscard]] std::uint32_t position(const std::uint64_t* state,
                                       CoreId core) const noexcept {
    return core_word(state, core) >> 8;
  }
  [[nodiscard]] std::uint32_t fetch_left(const std::uint64_t* state,
                                         CoreId core) const noexcept {
    return core_word(state, core) & 0xFFu;
  }

 private:
  [[nodiscard]] std::uint32_t core_word(const std::uint64_t* state,
                                        CoreId core) const noexcept {
    const std::uint64_t word = state[cache_words_ + (core >> 1)];
    return static_cast<std::uint32_t>(word >> ((core & 1u) * 32));
  }
  static void set_core_word(std::uint64_t* state, std::size_t cache_words,
                            CoreId core, std::uint32_t value) noexcept {
    std::uint64_t& word = state[cache_words + (core >> 1)];
    const unsigned shift = (core & 1u) * 32;
    word = (word & ~(std::uint64_t{0xFFFFFFFFu} << shift)) |
           (std::uint64_t{value} << shift);
  }

  [[nodiscard]] std::uint32_t next_occurrence(PageId page,
                                              std::uint32_t from) const;

  /// Expands cores `core..p_-1` of the step.  `bar`: under kAllPages, the
  /// unrequested candidates below it repeat an earlier branch (see above).
  template <class Sink>
  void expand_core(CoreId core, StepScratch& scratch, std::uint32_t faulted,
                   std::size_t cache_fill, PageId bar,
                   const Sink& sink) const {
    if (core == p_) {
      PackedOutcome outcome;
      outcome.next = scratch.work.data();
      outcome.faulted_cores = faulted;
      outcome.evictions = scratch.evictions;
      sink(outcome);
      return;
    }
    std::uint64_t* work = scratch.work.data();
    const std::uint32_t word = core_word(work, core);
    const std::uint32_t fetch = word & 0xFFu;
    if (fetch > 0) {  // blocked: the fetch ticks down
      set_core_word(work, cache_words_, core, word - 1);
      expand_core(core + 1, scratch, faulted, cache_fill, bar, sink);
      set_core_word(scratch.work.data(), cache_words_, core, word);
      return;
    }
    const std::uint32_t pos = word >> 8;
    const RequestSequence& seq = *seqs_[core];
    if (pos >= seq.size()) {  // finished
      expand_core(core + 1, scratch, faulted, cache_fill, bar, sink);
      return;
    }
    const PageId page = seq[pos];
    const bool locked = detail::test_bit(scratch.locked.data(), page);
    if (detail::test_bit(work, page) && !locked) {
      // Hit: consumes this step only.
      set_core_word(work, cache_words_, core, word + (1u << 8));
      expand_core(core + 1, scratch, faulted, cache_fill, bar, sink);
      set_core_word(scratch.work.data(), cache_words_, core, word);
      return;
    }
    MCP_ASSERT_MSG(!locked, "disjoint input requested an in-flight page");
    // Fault: advance, block for tau, branch over the admissible victims.
    const std::uint32_t faulting_word = ((pos + 1) << 8) | tau_;
    set_core_word(work, cache_words_, core, faulting_word);
    faulted |= 1u << core;
    if (cache_fill < cache_size_) {
      // Honest: no eviction while a cell is free.
      detail::set_bit(work, page);
      detail::set_bit(scratch.locked.data(), page);
      scratch.evictions.push_back(kInvalidPage);
      expand_core(core + 1, scratch, faulted, cache_fill + 1, bar, sink);
      scratch.evictions.pop_back();
      detail::clear_bit(scratch.locked.data(), page);
      detail::clear_bit(scratch.work.data(), page);
    } else {
      // On-stack snapshot of the candidate bitset: deeper recursion mutates
      // the cache words, but iteration walks this frozen copy — ascending
      // page order, matching the reference's sorted candidate list.
      std::array<std::uint64_t, kMaxCacheWords> candidates{};
      victim_bits(scratch, candidates.data());
      for (std::size_t w = 0; w < cache_words_ && bar > w * 64; ++w) {
        const std::size_t below = bar - w * 64;
        const std::uint64_t low = below >= 64
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << below) - 1;
        candidates[w] &= scratch.requested[w] | ~low;
      }
      for (std::size_t w = 0; w < cache_words_; ++w) {
        std::uint64_t bits = candidates[w];
        while (bits != 0) {
          const auto b = static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const PageId victim = static_cast<PageId>(w * 64 + b);
          const PageId next_bar =
              rule_ == VictimRule::kAllPages &&
                      !detail::test_bit(scratch.requested.data(), victim)
                  ? victim + 1
                  : bar;
          std::uint64_t* cur = scratch.work.data();
          detail::clear_bit(cur, victim);
          detail::set_bit(cur, page);
          detail::set_bit(scratch.locked.data(), page);
          scratch.evictions.push_back(victim);
          expand_core(core + 1, scratch, faulted, cache_fill, next_bar, sink);
          scratch.evictions.pop_back();
          cur = scratch.work.data();
          detail::clear_bit(scratch.locked.data(), page);
          detail::clear_bit(cur, page);
          detail::set_bit(cur, victim);
        }
      }
    }
    set_core_word(scratch.work.data(), cache_words_, core, word);
  }

  /// Victim-candidate bitset (evictable = cached, not locked, rule-filtered)
  /// written to `out[0..cache_words_)`.
  void victim_bits(const StepScratch& scratch, std::uint64_t* out) const;

  const OfflineInstance* instance_;
  VictimRule rule_;
  std::size_t p_;
  PageId universe_size_ = 0;
  std::size_t cache_words_ = 1;
  std::size_t stride_ = 2;
  std::uint32_t tau_ = 0;
  std::size_t cache_size_ = 0;
  std::vector<CoreId> owner_;                            ///< page -> core
  std::vector<std::vector<std::uint32_t>> occurrences_;  ///< page -> indices
  std::vector<const RequestSequence*> seqs_;             ///< core -> sequence
};

}  // namespace mcp
