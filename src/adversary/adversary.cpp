#include "adversary/adversary.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "policies/belady.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/static_partition.hpp"

namespace mcp {

// ---------------------------------------------------------------------------
// Lemma 1 fault-curve construction (parallel sweep over k_max).
// ---------------------------------------------------------------------------

std::vector<AdversaryCurvePoint> lemma1_fault_curve(
    const std::vector<std::size_t>& k_values, const std::string& policy,
    std::size_t requests_per_core, std::size_t background_part) {
  MCP_REQUIRE(background_part >= 1, "lemma1 curve: background part empty");
  SweepRunner sweep;
  return sweep.run(k_values.size(), [&](std::size_t cell, Rng& /*rng*/) {
    const std::size_t k_max = k_values[cell];
    const Partition partition = {k_max, background_part};
    // The adversary keeps the victim core one page ahead of its part.
    Lemma1AdversaryStream adversary(partition.size(), /*victim_core=*/0,
                                    k_max + 1, requests_per_core);
    RecordingStream recorder(adversary);
    StaticPartitionStrategy strategy(partition, make_policy_factory(policy));
    SimConfig config;
    config.cache_size = k_max + background_part;
    config.fault_penalty = 1;
    Simulator sim(config);
    AdversaryCurvePoint point;
    point.k_max = k_max;
    point.online = sim.run_stream(recorder, strategy, nullptr).total_faults();
    for (CoreId j = 0; j < partition.size(); ++j) {
      point.opt += belady_faults(recorder.recorded().sequence(j), partition[j]);
    }
    return point;
  });
}

// ---------------------------------------------------------------------------
// Lemma1AdversaryStream
// ---------------------------------------------------------------------------

Lemma1AdversaryStream::Lemma1AdversaryStream(std::size_t num_cores,
                                             CoreId victim_core,
                                             std::size_t num_pages,
                                             std::size_t requests_per_core)
    : victim_core_(victim_core),
      num_pages_(num_pages),
      requests_per_core_(requests_per_core),
      stride_(static_cast<PageId>(num_pages + 1)),
      issued_(num_cores, 0),
      resident_(num_pages, false) {
  MCP_REQUIRE(victim_core < num_cores, "lemma1: victim core out of range");
  MCP_REQUIRE(num_pages >= 2, "lemma1: need at least 2 adversarial pages");
}

std::optional<PageId> Lemma1AdversaryStream::next(CoreId core) {
  if (issued_[core] >= requests_per_core_) return std::nullopt;
  ++issued_[core];
  if (core != victim_core_) {
    // One fixed private page per background core.
    return static_cast<PageId>(core) * stride_;
  }
  // Request the first of my pages that is not in cache (there is always one:
  // the algorithm's part holds at most num_pages - 1 of them).
  for (std::size_t i = 0; i < num_pages_; ++i) {
    if (!resident_[i]) return my_page(i);
  }
  return my_page(0);  // defensive: all resident (shared strategy hoarding)
}

void Lemma1AdversaryStream::on_fault(const AccessContext& ctx) {
  if (ctx.core != victim_core_) return;
  const PageId base = static_cast<PageId>(victim_core_) * stride_;
  if (ctx.page >= base && ctx.page < base + stride_) {
    resident_[ctx.page - base] = true;
  }
}

void Lemma1AdversaryStream::on_evict(PageId page, CoreId /*core*/, Time /*now*/,
                                     EvictionCause /*cause*/) {
  const PageId base = static_cast<PageId>(victim_core_) * stride_;
  if (page >= base && page < base + static_cast<PageId>(num_pages_)) {
    resident_[page - base] = false;
  }
}

// ---------------------------------------------------------------------------
// Fixed families
// ---------------------------------------------------------------------------

RequestSet lemma2_request_set(const Partition& partition,
                              std::size_t total_requests) {
  const std::size_t p = partition.size();
  MCP_REQUIRE(p >= 2, "lemma2: need at least two cores");
  const std::size_t per_core = total_requests / p;

  // j* = argmin{k_j | k_j >= 2}; P = the k_{j*} cores with the largest parts.
  std::size_t jstar = p;
  for (std::size_t j = 0; j < p; ++j) {
    if (partition[j] >= 2 && (jstar == p || partition[j] < partition[jstar])) {
      jstar = j;
    }
  }
  MCP_REQUIRE(jstar < p, "lemma2: partition must have a part of size >= 2");
  std::vector<std::size_t> by_size(p);
  for (std::size_t j = 0; j < p; ++j) by_size[j] = j;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&partition](std::size_t a, std::size_t b) {
                     return partition[a] > partition[b];
                   });
  std::vector<bool> overflow(p, false);  // j in P' gets k_j + 1 pages
  for (std::size_t r = 0; r < std::min(partition[jstar], p); ++r) {
    if (by_size[r] != jstar) overflow[by_size[r]] = true;
  }

  RequestSet rs;
  PageId next_page = 0;
  for (std::size_t j = 0; j < p; ++j) {
    RequestSequence seq;
    if (j == jstar) {
      const std::vector<PageId> solo = {next_page};
      next_page += 1;
      seq.append_repeated(solo, per_core);
    } else {
      const std::size_t cycle = partition[j] + (overflow[j] ? 1 : 0);
      const std::vector<PageId> pages = page_block(next_page, cycle);
      next_page += static_cast<PageId>(cycle);
      const std::size_t laps = std::max<std::size_t>(1, per_core / cycle);
      seq.append_repeated(pages, laps);
    }
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

RequestSet theorem1_distinct_period_set(std::size_t num_cores,
                                        std::size_t cache_size, Time tau,
                                        std::size_t x) {
  MCP_REQUIRE(num_cores >= 2, "theorem1: need at least two cores");
  MCP_REQUIRE(cache_size % num_cores == 0, "theorem1: requires p | K");
  MCP_REQUIRE(x >= 1, "theorem1: x must be positive");
  const std::size_t cycle = cache_size / num_cores + 1;  // K/p + 1
  const std::size_t stride = cycle + 1;

  RequestSet rs;
  for (std::size_t j = 0; j < num_cores; ++j) {
    const PageId base = static_cast<PageId>(j * stride);
    RequestSequence seq;
    const std::vector<PageId> home = {base};
    // Quiet prefix while earlier cores take their distinct periods.
    seq.append_repeated(home, j * cycle * (tau + x));
    // The distinct period: x laps over K/p + 1 distinct pages.
    const std::vector<PageId> distinct = page_block(base, cycle);
    seq.append_repeated(distinct, x);
    // Quiet suffix while later cores take theirs.
    seq.append_repeated(home,
                        (cache_size + num_cores - (j + 1) * cycle) * (tau + x));
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

RequestSet lemma4_request_set(std::size_t num_cores, std::size_t cache_size,
                              std::size_t requests_per_core) {
  MCP_REQUIRE(num_cores >= 2, "lemma4: need at least two cores");
  MCP_REQUIRE(cache_size % num_cores == 0, "lemma4: requires p | K");
  const std::size_t cycle = cache_size / num_cores + 1;
  RequestSet rs;
  for (std::size_t j = 0; j < num_cores; ++j) {
    const std::vector<PageId> pages =
        page_block(static_cast<PageId>(j * cycle), cycle);
    RequestSequence seq;
    seq.append_repeated(pages, std::max<std::size_t>(1, requests_per_core / cycle));
    rs.add_sequence(std::move(seq));
  }
  return rs;
}

// ---------------------------------------------------------------------------
// StagedAdversaryStream
// ---------------------------------------------------------------------------

StagedAdversaryStream::StagedAdversaryStream(std::size_t num_cores,
                                             std::size_t pages_per_core,
                                             std::size_t turn_length,
                                             std::size_t laps)
    : pages_per_core_(pages_per_core),
      turn_length_(turn_length),
      total_per_core_(turn_length * num_cores * laps),
      stride_(static_cast<PageId>(pages_per_core + 1)),
      issued_(num_cores, 0),
      resident_(num_cores, std::vector<bool>(pages_per_core, false)) {
  MCP_REQUIRE(num_cores >= 2, "staged adversary: need at least two cores");
  MCP_REQUIRE(pages_per_core >= 2, "staged adversary: need >= 2 pages per core");
}

std::optional<PageId> StagedAdversaryStream::next(CoreId core) {
  if (issued_[core] >= total_per_core_) return std::nullopt;
  const std::size_t slot = issued_[core]++;
  // Whose turn is it from this core's perspective?  Turns rotate every
  // `turn_length_` of the core's own requests, all cores in lockstep enough
  // for the lower-bound structure (exact global alignment is not required).
  const CoreId active =
      static_cast<CoreId>((slot / turn_length_) % issued_.size());
  if (active != core) return page_of(core, 0);  // home page
  for (std::size_t i = 0; i < pages_per_core_; ++i) {
    if (!resident_[core][i]) return page_of(core, i);
  }
  return page_of(core, 0);
}

void StagedAdversaryStream::on_fault(const AccessContext& ctx) {
  const CoreId core = ctx.core;
  const PageId base = static_cast<PageId>(core) * stride_;
  if (ctx.page >= base && ctx.page < base + static_cast<PageId>(pages_per_core_)) {
    resident_[core][ctx.page - base] = true;
  }
}

void StagedAdversaryStream::on_evict(PageId page, CoreId /*core*/, Time /*now*/,
                                     EvictionCause /*cause*/) {
  const CoreId owner = static_cast<CoreId>(page / stride_);
  const PageId offset = page % stride_;
  if (owner < resident_.size() && offset < pages_per_core_) {
    resident_[owner][offset] = false;
  }
}

// ---------------------------------------------------------------------------
// SacrificeStrategy
// ---------------------------------------------------------------------------

SacrificeStrategy::SacrificeStrategy(CoreId sacrifice) : sacrifice_(sacrifice) {}

void SacrificeStrategy::attach(const SimConfig& config, std::size_t num_cores,
                               const RequestSet* requests) {
  MCP_REQUIRE(requests != nullptr,
              "S_OFF is offline: it needs the materialized request set");
  MCP_REQUIRE(sacrifice_ < num_cores, "sacrifice core out of range");
  cache_size_ = config.cache_size;
  oracle_.attach(*requests);
  owner_ = requests->owner_map(requests->page_bound());
  resident_.clear();
}

void SacrificeStrategy::on_hit(const AccessContext& ctx) {
  oracle_.advance(ctx.core, ctx.seq_index + 1);
}

void SacrificeStrategy::on_fault(const AccessContext& ctx,
                                 const CacheView& cache, bool needs_cell,
                                 std::vector<PageId>& evictions) {
  oracle_.advance(ctx.core, ctx.seq_index + 1);
  if (!needs_cell) return;
  if (cache.occupied() == cache_size_) {
    PageId victim = kInvalidPage;
    if (ctx.core != sacrifice_) {
      // Take a cell from the sacrifice core: its page whose next request is
      // furthest (any would do; furthest is gentlest).
      std::uint64_t best = 0;
      for (PageId page : resident_) {
        if (owner_[page] != sacrifice_ || !cache.contains(page)) continue;
        const std::uint64_t dist = oracle_.next_use_in(sacrifice_, page);
        if (victim == kInvalidPage || dist > best) {
          victim = page;
          best = dist;
        }
      }
    } else {
      // The sacrifice core first reclaims *dead* pages of other cores (once
      // they finish, their working sets are never requested again — the
      // proof's "rest of R_p is served with all the cache"); while others
      // are live, it recycles itself, evicting its own page whose next
      // request is soonest so everyone else's working set survives.
      for (PageId page : resident_) {
        if (owner_[page] == sacrifice_ || !cache.contains(page)) continue;
        if (oracle_.next_use_any(page) == kNeverAgain) {
          victim = page;
          break;
        }
      }
      if (victim == kInvalidPage) {
        std::uint64_t best = 0;
        for (PageId page : resident_) {
          if (owner_[page] != sacrifice_ || !cache.contains(page)) continue;
          const std::uint64_t dist = oracle_.next_use_in(sacrifice_, page);
          if (victim == kInvalidPage || dist < best) {
            victim = page;
            best = dist;
          }
        }
      }
    }
    if (victim == kInvalidPage) {
      // Fallback (sacrifice has no evictable page): global FITF.
      std::uint64_t best = 0;
      for (PageId page : resident_) {
        if (!cache.contains(page)) continue;
        const std::uint64_t dist = oracle_.next_use_any(page);
        if (victim == kInvalidPage || dist > best) {
          victim = page;
          best = dist;
        }
      }
    }
    MCP_REQUIRE(victim != kInvalidPage, "S_OFF: no evictable page");
    const auto it = std::lower_bound(resident_.begin(), resident_.end(), victim);
    resident_.erase(it);
    evictions.push_back(victim);
  }
  const auto it =
      std::lower_bound(resident_.begin(), resident_.end(), ctx.page);
  resident_.insert(it, ctx.page);
}

}  // namespace mcp
