// The paper's hardness reductions, as executable instance builders.
//
// Theorem 2 (k=3): 3-PARTITION -> PARTIAL-INDIVIDUAL-FAULTS.  One sequence
// per element, R_i = alpha_i beta_i alpha_i beta_i ..., cache K = (4/3)p,
// per-sequence fault bound b_i = B - s_i + 4, deadline
// t = B(tau+1) + 4*tau + 5.
//
// Theorem 3 (k=4): the analogous 4-PARTITION -> PIF reduction behind the
// MAX-PIF APX-hardness proof: K = (5/4)p, b_i = B - s_i + 5, deadline
// t = B(tau+1) + 5*tau + 6.
//
// Both directions are executable here:
//   * forward — a k-partition solution converts, via CertificateStrategy,
//     into an explicit eviction schedule under which the simulator meets
//     every bound *with equality* (the proof's schedule, mechanized);
//   * backward (on solvable sizes) — the PIF decision of the reduced
//     instance matches the k-PARTITION answer (tested via solve_pif /
//     exhaustive_pif on the tiniest instances, and via the certificate on
//     all).
#pragma once

#include <cstddef>
#include <vector>

#include "core/stats.hpp"
#include "core/strategy.hpp"
#include "hardness/kpartition.hpp"
#include "offline/instance.hpp"

namespace mcp {

struct PifReduction {
  PifInstance pif;
  std::size_t group_size = 3;             ///< k of the source problem
  std::vector<std::uint32_t> values;      ///< s_i, copied from the source
  std::uint32_t target = 0;               ///< B
  Time tau = 0;

  /// alpha_i = 2i, beta_i = 2i + 1.
  [[nodiscard]] static PageId alpha(CoreId core) { return 2 * core; }
  [[nodiscard]] static PageId beta(CoreId core) { return 2 * core + 1; }

  /// Required hits of sequence i by the deadline: h_i = s_i(tau+1) + 1.
  [[nodiscard]] Count required_hits(CoreId core) const {
    return static_cast<Count>(values[core]) * (tau + 1) + 1;
  }
};

/// Builds the PIF instance of the Theorem 2 (group_size 3) or Theorem 3
/// (group_size 4) reduction.  tau >= 0.
[[nodiscard]] PifReduction reduce_kpartition_to_pif(
    const KPartitionInstance& instance, Time tau);

/// The proof's certificate schedule, mechanized as a strategy: each group of
/// k sequences shares k+1 cells; every sequence keeps one dedicated cell and
/// the group's extra cell rotates through the members (ascending core id),
/// giving member i exactly h_i hits before handing the cell on.
class CertificateStrategy final : public CacheStrategy {
 public:
  CertificateStrategy(const PifReduction& reduction,
                      std::vector<std::vector<std::size_t>> groups);

  void attach(const SimConfig& config, std::size_t num_cores,
              const RequestSet* requests) override;
  void on_hit(const AccessContext& ctx) override;
  void on_fault(const AccessContext& ctx, const CacheView& cache,
                bool needs_cell, std::vector<PageId>& evictions) override;
  [[nodiscard]] std::string name() const override { return "CERTIFICATE"; }

 private:
  struct GroupState {
    std::vector<CoreId> members;   // ascending core id
    std::size_t owner_idx = 0;     // member currently holding 2 cells
    std::size_t occupancy = 0;     // resident pages of this group
  };

  const PifReduction* reduction_;
  std::vector<GroupState> groups_;
  std::vector<std::size_t> group_of_;      // core -> group index
  std::vector<Count> hits_done_;
  std::vector<std::size_t> next_index_;    // next unserved request per core
  std::vector<std::vector<PageId>> resident_;  // core -> its resident pages
};

/// Runs the certificate schedule for `groups` (a k-partition solution,
/// element indices == core ids) and returns the stats; the caller checks
/// the PIF bounds.  Throws ModelError if `groups` is not a valid solution.
[[nodiscard]] RunStats play_certificate(
    const PifReduction& reduction,
    const std::vector<std::vector<std::size_t>>& groups);

}  // namespace mcp
