#include "offline/packed_space.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "core/error.hpp"

namespace mcp {

namespace {

constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

using detail::set_bit;

/// The first packed-encoding bound `instance` exceeds, with the instance's
/// value; empty when the instance fits.
std::string encoding_violation(const OfflineInstance& instance) {
  using PTS = PackedTransitionSystem;
  const std::size_t p = instance.requests.num_cores();
  if (p > PTS::kMaxCores) {
    return std::to_string(p) + " cores exceed the core-count bound " +
           std::to_string(PTS::kMaxCores);
  }
  const PageId page_bound = instance.requests.page_bound();
  if (page_bound > PTS::kMaxUniverse) {
    return "page id " + std::to_string(page_bound - 1) +
           " is not below the page-id bound " +
           std::to_string(PTS::kMaxUniverse);
  }
  if (instance.tau > PTS::kMaxTau) {
    return "tau " + std::to_string(instance.tau) + " exceeds the tau bound " +
           std::to_string(PTS::kMaxTau);
  }
  for (CoreId j = 0; j < p; ++j) {
    const std::size_t n = instance.requests.sequence(j).size();
    if (n > PTS::kMaxPosition) {
      return "core " + std::to_string(j) + " has " + std::to_string(n) +
             " requests, not below the sequence-length bound " +
             std::to_string(PTS::kMaxPosition + 1);
    }
  }
  return {};
}

}  // namespace

bool PackedTransitionSystem::supports(const OfflineInstance& instance) {
  return instance.requests.num_cores() > 0 &&
         encoding_violation(instance).empty();
}

PackedTransitionSystem::PackedTransitionSystem(const OfflineInstance& instance,
                                               VictimRule rule)
    : instance_(&instance),
      rule_(rule),
      p_(instance.requests.num_cores()),
      tau_(static_cast<std::uint32_t>(instance.tau)),
      cache_size_(instance.cache_size) {
  instance.validate();
  if (std::string why = encoding_violation(instance); !why.empty()) {
    throw InputError("offline instance outside the packed encoding: " + why);
  }
  universe_size_ = instance.requests.page_bound();
  cache_words_ = std::max<std::size_t>(1, (universe_size_ + 63) / 64);
  stride_ = cache_words_ + (p_ + 1) / 2;
  owner_ = instance.requests.owner_map(universe_size_);
  occurrences_.resize(universe_size_);
  seqs_.reserve(p_);
  for (CoreId core = 0; core < p_; ++core) {
    const RequestSequence& seq = instance.requests.sequence(core);
    seqs_.push_back(&seq);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      occurrences_[seq[i]].push_back(static_cast<std::uint32_t>(i));
    }
  }
}

void PackedTransitionSystem::initial(std::uint64_t* out) const {
  std::fill(out, out + stride_, 0);
}

bool PackedTransitionSystem::is_terminal(const std::uint64_t* state) const {
  for (CoreId j = 0; j < p_; ++j) {
    if (position(state, j) < seqs_[j]->size()) return false;
  }
  return true;
}

std::uint32_t PackedTransitionSystem::next_occurrence(PageId page,
                                                      std::uint32_t from) const {
  const auto& occ = occurrences_[page];
  const auto it = std::lower_bound(occ.begin(), occ.end(), from);
  return it == occ.end() ? kNever : *it;
}

void PackedTransitionSystem::victim_bits(const StepScratch& scratch,
                                         std::uint64_t* out) const {
  for (std::size_t w = 0; w < cache_words_; ++w) {
    out[w] = scratch.work[w] & ~scratch.locked[w];
  }
  if (rule_ == VictimRule::kAllPages) return;

  // Theorem 5: keep, for each core c, only the evictable page of R_c whose
  // next request in R_c is furthest (never-again = infinitely far).
  std::array<PageId, kMaxCores> best_page;
  std::array<std::uint64_t, kMaxCores> best_dist;
  best_page.fill(kInvalidPage);
  for (std::size_t w = 0; w < cache_words_; ++w) {
    std::uint64_t bits = out[w];
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const PageId page = static_cast<PageId>(w * 64 + b);
      const CoreId c = owner_[page];
      const std::uint32_t next =
          next_occurrence(page, position(scratch.work.data(), c));
      const std::uint64_t dist =
          next == kNever ? std::numeric_limits<std::uint64_t>::max() : next;
      if (best_page[c] == kInvalidPage || dist > best_dist[c]) {
        best_page[c] = page;
        best_dist[c] = dist;
      }
    }
  }
  std::fill(out, out + cache_words_, 0);
  for (CoreId c = 0; c < p_; ++c) {
    if (best_page[c] != kInvalidPage) set_bit(out, best_page[c]);
  }
}

}  // namespace mcp
