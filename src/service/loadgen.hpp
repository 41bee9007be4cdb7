// mcpd-loadgen: replays synthetic multi-tenant workloads against an
// in-process mcpd and measures ingest throughput and epoch latency.
//
// Each tenant is one session with its own seeded trace (workload lib).
// Tenant documents (open + interleaved request chunks + close + one
// fault-count query) are pre-encoded outside the timed region, so the
// measurement covers exactly the daemon path: submit -> shard ingress ->
// session stepping (cohort lanes or scalar SimSession, see TenantMix and
// LoadgenConfig::enable_batching) -> response publish.  `producers` client
// threads submit concurrently, exercising the multi-producer side of the
// ingress queue, then block until every tenant's reply arrives.
//
// Two throughput figures are reported (docs/MCPD.md "Measuring on one
// CPU"):
//
//   requests_per_sec  pairs / wall seconds of the timed region.  On a
//                     single-CPU host this CANNOT rise with the shard
//                     count — every shard shares the one core.
//   capacity_rps      sum over shards of pairs_s / busy_s, where busy_s is
//                     the shard worker's CLOCK_THREAD_CPUTIME_ID seconds.
//                     This is per-shard processing rate summed: it rises
//                     with shard count exactly when shards do not
//                     serialize against each other, and is the scaling
//                     figure the acceptance sweep gates on.
//
// total_faults is a determinism checksum: it must be identical across
// shard counts, producer counts and chunk sizes for a fixed workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/stats.hpp"
#include "core/types.hpp"
#include "service/mcpd.hpp"

namespace mcp::service {

/// Tenant composition of a loadgen pass.
enum class TenantMix {
  /// Tenants cycle through all four wire strategies — several cohorts per
  /// shard, the representative multi-tenant replay.
  kMixed,
  /// Every tenant shares LoadgenConfig::strategy and parameters — one
  /// cohort per shard, the shape the batched path is built for.
  kHomogeneous,
};

struct LoadgenConfig {
  std::size_t num_shards = 1;
  std::size_t tenants = 32;
  std::size_t producers = 2;        ///< Concurrent submitting client threads.
  std::size_t cores_per_tenant = 4;
  std::size_t requests_per_core = 2048;
  std::size_t pages_per_core = 128;
  std::size_t cache_size = 64;
  Time fault_penalty = 4;
  std::size_t chunk_pairs = 256;    ///< Pairs per kRequestChunk frame.
  wire::StrategyKind strategy = wire::StrategyKind::kSharedLru;
  TenantMix mix = TenantMix::kMixed;
  bool enable_batching = true;      ///< McpdConfig::enable_batching.
  std::uint64_t seed = 0x10adULL;
};

struct LoadgenResult {
  std::size_t shards = 0;
  std::size_t tenants = 0;
  std::uint64_t pairs = 0;          ///< Request pairs pushed through mcpd.
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;    ///< pairs / wall_seconds.
  double capacity_rps = 0.0;        ///< Busy-time-normalized (header comment).
  std::uint64_t total_faults = 0;   ///< Determinism checksum.
  std::uint64_t epochs = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t batched_sessions = 0;  ///< Sessions served by cohort lanes.
  std::uint64_t scalar_sessions = 0;   ///< Sessions served by SimSession.
  std::uint64_t lane_steps = 0;        ///< Cohort lockstep iterations.
  std::uint64_t answer_ns = 0;         ///< Shard CPU ns building replies.
  LatencyHistogram epoch_latency;   ///< Wall ns per shard epoch, merged.
};

/// Runs one full loadgen pass (build tenants, submit, await replies, stop
/// the daemon) and returns the measurements.
[[nodiscard]] LoadgenResult run_loadgen(const LoadgenConfig& config);

}  // namespace mcp::service
