#include "hardness/reduction.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/simulator.hpp"

namespace mcp {

PifReduction reduce_kpartition_to_pif(const KPartitionInstance& instance,
                                      Time tau) {
  instance.validate();
  const std::size_t p = instance.values.size();
  const std::size_t k = instance.group_size;

  PifReduction reduction;
  reduction.group_size = k;
  reduction.values = instance.values;
  reduction.target = instance.target;
  reduction.tau = tau;

  // Deadline t = B(tau+1) + (k+1)tau + (k+2); for k=3 this is the paper's
  // B(tau+1) + 4tau + 5, for k=4 its B(tau+1) + 5tau + 6.
  const Time deadline = static_cast<Time>(instance.target) * (tau + 1) +
                        static_cast<Time>(k + 1) * tau +
                        static_cast<Time>(k + 2);

  PifInstance& pif = reduction.pif;
  pif.base.cache_size = (k + 1) * (p / k);  // (k+1)/k * p cells
  pif.base.tau = tau;
  pif.deadline = deadline;
  for (CoreId core = 0; core < p; ++core) {
    // R_i alternates alpha_i beta_i ...; `deadline` requests suffice to keep
    // the sequence busy through the deadline even in the all-hit extreme.
    RequestSequence seq;
    for (Time i = 0; i < deadline; ++i) {
      seq.push_back(i % 2 == 0 ? PifReduction::alpha(core)
                               : PifReduction::beta(core));
    }
    pif.base.requests.add_sequence(std::move(seq));
    // b_i = B - s_i + (k+1).
    pif.bounds.push_back(static_cast<Count>(instance.target) -
                         instance.values[core] + k + 1);
  }
  pif.validate();
  return reduction;
}

CertificateStrategy::CertificateStrategy(
    const PifReduction& reduction, std::vector<std::vector<std::size_t>> groups)
    : reduction_(&reduction) {
  const std::size_t p = reduction.values.size();
  group_of_.assign(p, static_cast<std::size_t>(-1));
  for (const auto& group : groups) {
    MCP_REQUIRE(group.size() == reduction.group_size,
                "certificate: group of wrong size");
    GroupState state;
    for (std::size_t idx : group) {
      MCP_REQUIRE(idx < p, "certificate: core index out of range");
      state.members.push_back(static_cast<CoreId>(idx));
    }
    std::sort(state.members.begin(), state.members.end());
    for (CoreId member : state.members) {
      MCP_REQUIRE(group_of_[member] == static_cast<std::size_t>(-1),
                  "certificate: core in two groups");
      group_of_[member] = groups_.size();
    }
    groups_.push_back(std::move(state));
  }
  for (std::size_t g : group_of_) {
    MCP_REQUIRE(g != static_cast<std::size_t>(-1),
                "certificate: core not covered by any group");
  }
}

void CertificateStrategy::attach(const SimConfig& /*config*/,
                                 std::size_t num_cores,
                                 const RequestSet* /*requests*/) {
  MCP_REQUIRE(num_cores == reduction_->values.size(),
              "certificate: core count mismatch");
  hits_done_.assign(num_cores, 0);
  next_index_.assign(num_cores, 0);
  resident_.assign(num_cores, {});
  for (GroupState& group : groups_) {
    group.owner_idx = 0;
    group.occupancy = 0;
  }
}

void CertificateStrategy::on_hit(const AccessContext& ctx) {
  ++hits_done_[ctx.core];
  next_index_[ctx.core] = ctx.seq_index + 1;
}

void CertificateStrategy::on_fault(const AccessContext& ctx,
                                   const CacheView& cache, bool needs_cell,
                                   std::vector<PageId>& evictions) {
  MCP_REQUIRE(needs_cell, "certificate: reduction sequences are disjoint");
  const CoreId c = ctx.core;
  next_index_[c] = ctx.seq_index + 1;
  GroupState& group = groups_[group_of_[c]];

  if (group.occupancy == reduction_->group_size + 1) {
    const CoreId owner = group.members[group.owner_idx];
    // Hand the extra cell to the next member (ascending id) exactly when the
    // current owner's hit quota is complete and that member faults.  Once
    // the rotation plan is exhausted (only possible after the deadline, when
    // the last member finished its quota), faults fall through to the
    // steady-state own-cell recycling below.
    const bool handover =
        c != owner && hits_done_[owner] >= reduction_->required_hits(owner) &&
        group.owner_idx + 1 < group.members.size() &&
        group.members[group.owner_idx + 1] == c;
    CoreId victim_core = kInvalidCore;
    PageId victim = kInvalidPage;
    if (handover) {
      // The next member (ascending id) takes the extra cell.  Evict the old
      // owner's page that it requests *next* — the owner (smaller id) was
      // served earlier this same step, so next_index_ points past its final
      // hit and the victim is exactly its t+1 request.
      ++group.owner_idx;
      MCP_REQUIRE(group.owner_idx < group.members.size() &&
                      group.members[group.owner_idx] == c,
                  "certificate: handover to an unexpected core");
      victim_core = owner;
      const RequestSequence& seq =
          reduction_->pif.base.requests.sequence(owner);
      MCP_REQUIRE(next_index_[owner] < seq.size(),
                  "certificate: old owner's sequence exhausted at handover");
      victim = seq[next_index_[owner]];
    } else {
      // Non-owner steady state: recycle the core's own single cell.
      victim_core = c;
      MCP_REQUIRE(resident_[c].size() == 1,
                  "certificate: non-owner expected exactly one resident page");
      victim = resident_[c][0];
    }
    MCP_REQUIRE(cache.contains(victim),
                "certificate: chosen victim is not evictable");
    auto& resident = resident_[victim_core];
    const auto it = std::find(resident.begin(), resident.end(), victim);
    MCP_REQUIRE(it != resident.end(), "certificate: victim bookkeeping lost");
    resident.erase(it);
    --group.occupancy;
    evictions.push_back(victim);
  }

  resident_[c].push_back(ctx.page);
  ++group.occupancy;
}

RunStats play_certificate(const PifReduction& reduction,
                          const std::vector<std::vector<std::size_t>>& groups) {
  KPartitionInstance source;
  source.values = reduction.values;
  source.target = reduction.target;
  source.group_size = reduction.group_size;
  MCP_REQUIRE(check_kpartition_solution(source, groups),
              "play_certificate: groups are not a k-partition solution");
  CertificateStrategy strategy(reduction, groups);
  Simulator sim(reduction.pif.base.sim_config());
  return sim.run(reduction.pif.base.requests, strategy);
}

}  // namespace mcp
