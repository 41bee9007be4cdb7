#include "strategies/dynamic_partition.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace mcp {

// ---------------------------------------------------------------------------
// Lemma3DynamicPartition
// ---------------------------------------------------------------------------

void Lemma3DynamicPartition::attach(const SimConfig& config,
                                    std::size_t num_cores,
                                    const RequestSet* /*requests*/) {
  cache_size_ = config.cache_size;
  sizes_ = even_partition(cache_size_, num_cores);
  parts_.clear();
  for (std::size_t j = 0; j < num_cores; ++j) {
    // Any part may grow to the whole cache.
    parts_.push_back(std::make_unique<LruPolicy>());
    parts_.back()->set_capacity(cache_size_);
  }
  occupancy_.assign(num_cores, 0);
  owner_.reset();
  total_occupancy_ = 0;
  changes_ = 0;
}

void Lemma3DynamicPartition::on_hit(const AccessContext& ctx) {
  const CoreId owner = owner_[ctx.page];
  MCP_ASSERT_MSG(owner != kInvalidCore, "lemma3: hit on unowned page");
  parts_[owner]->on_hit(ctx.page, ctx);
}

void Lemma3DynamicPartition::on_fault(const AccessContext& ctx,
                                      const CacheView& cache, bool needs_cell,
                                      std::vector<PageId>& evictions) {
  if (!needs_cell) return;
  const CoreId j = ctx.core;

  if (occupancy_[j] >= sizes_[j]) {
    if (total_occupancy_ < cache_size_) {
      // Some core holds unused allocation; move one of its cells to j.
      CoreId donor = kInvalidCore;
      std::size_t best_slack = 0;
      for (CoreId c = 0; c < sizes_.size(); ++c) {
        const std::size_t slack = sizes_[c] - occupancy_[c];
        if (slack > best_slack) {
          best_slack = slack;
          donor = c;
        }
      }
      MCP_ASSERT_MSG(donor != kInvalidCore, "lemma3: full parts but free cache");
      --sizes_[donor];
      ++sizes_[j];
      ++changes_;
    } else {
      // Cache full: the part holding the globally least-recently-used
      // *evictable* page donates its cell, evicting that page — exactly what
      // shared LRU would evict.
      const auto evictable = [&cache](PageId page) { return cache.contains(page); };
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
      owner_.clear(victim);
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
  owner_.set(ctx.page, j, cache);
  ++occupancy_[j];
  ++total_occupancy_;
}

// ---------------------------------------------------------------------------
// StagedPartitionStrategy
// ---------------------------------------------------------------------------

StagedPartitionStrategy::StagedPartitionStrategy(
    std::vector<PartitionStage> schedule, PolicyFactory factory)
    : BudgetedPartitionStrategy(std::move(factory)),
      schedule_(std::move(schedule)) {
  MCP_REQUIRE(!schedule_.empty(), "staged partition: empty schedule");
  MCP_REQUIRE(schedule_.front().start == 0,
              "staged partition: first stage must start at time 0");
  for (std::size_t s = 1; s < schedule_.size(); ++s) {
    MCP_REQUIRE(schedule_[s].start > schedule_[s - 1].start,
                "staged partition: stage starts must be strictly ascending");
  }
}

void StagedPartitionStrategy::attach(const SimConfig& config,
                                     std::size_t num_cores,
                                     const RequestSet* requests) {
  for (const PartitionStage& stage : schedule_) {
    validate_partition(stage.sizes, config.cache_size, num_cores,
                       /*min_per_core=*/1);
  }
  stage_ = 0;
  BudgetedPartitionStrategy::attach(config, num_cores, requests);
}

Partition StagedPartitionStrategy::decide_sizes(Time now) {
  bool advanced = false;
  while (stage_ + 1 < schedule_.size() && schedule_[stage_ + 1].start <= now) {
    ++stage_;
    advanced = true;
  }
  return advanced ? schedule_[stage_].sizes : Partition{};
}

std::string StagedPartitionStrategy::name() const {
  return "dP[staged:" + std::to_string(schedule_.size()) + "]_A";
}

}  // namespace mcp
