// Set-associative cache geometry — a practice-facing extension.
//
// The paper's model (like most paging theory) is fully associative: any
// page may occupy any cell.  Real CMP last-level caches are W-way
// set-associative: the K cells form S = K/W sets, a page may only live in
// the set its id hashes to, and eviction happens within that set.  Since
// eviction decisions are strategy-level in this library, the geometry is a
// *strategy* (no simulator changes): a fault's victim is chosen by the
// per-set policy among that set's resident pages, even if other sets have
// free cells — exactly the conflict misses full associativity hides.
//
// S = 1 recovers the shared fully-associative strategy bit-for-bit, which
// the tests check; experiment E17 sweeps associativity.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/strategy.hpp"
#include "policies/eviction_policy.hpp"

namespace mcp {

class SetAssociativeStrategy final : public CacheStrategy {
 public:
  /// Splits the cache into `num_sets` sets of K/num_sets ways each
  /// (K % num_sets must be 0; validated at attach).  `factory` builds the
  /// per-set eviction policy.  Pages map to sets by id modulo num_sets (the
  /// usual index-bits rule for consecutive page ids).
  SetAssociativeStrategy(std::size_t num_sets, PolicyFactory factory);

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  /// A set whose cells are all mid-fetch cannot evict; the incoming page
  /// then overflows into a free cell (an MSHR/victim-buffer stand-in) and
  /// the set is shrunk back to its way budget here, as soon as one of its
  /// pages is evictable again.
  void on_step_begin(Time now, const CacheView& cache,
                     std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t set_of(PageId page) const noexcept {
    return page % num_sets_;
  }

 private:
  std::size_t num_sets_;
  std::size_t ways_ = 0;
  PolicyFactory factory_;
  std::vector<std::unique_ptr<EvictionPolicy>> sets_;
  std::vector<std::size_t> occupancy_;
};

}  // namespace mcp
