#include "service/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/workload.hpp"

namespace mcp::service {

namespace {

/// One tenant's pre-encoded wire document: open, interleaved single-core
/// run frames (the compact kRequestRun form), close, and a trailing
/// fault-count query (query_id = session id), so a single submission
/// drives the session end-to-end.
[[nodiscard]] std::shared_ptr<const std::vector<std::byte>> encode_tenant(
    const RequestSet& trace, std::uint64_t session,
    const wire::SessionParams& params, std::size_t chunk_pairs) {
  wire::WireWriter writer;
  writer.session_open(session, params);
  std::vector<std::size_t> cursor(trace.num_cores(), 0);
  bool emitted = true;
  while (emitted) {
    emitted = false;
    for (CoreId core = 0; core < trace.num_cores(); ++core) {
      const RequestSequence& seq = trace.sequence(core);
      if (cursor[core] >= seq.size()) continue;
      const std::size_t n = std::min(chunk_pairs, seq.size() - cursor[core]);
      writer.request_run(session, static_cast<std::uint32_t>(core),
                         seq.pages().subspan(cursor[core], n));
      cursor[core] += n;
      emitted = true;
    }
  }
  writer.session_close(session);
  writer.query_faults(session, /*query_id=*/session);
  return std::make_shared<const std::vector<std::byte>>(
      std::move(writer).take());
}

}  // namespace

LoadgenResult run_loadgen(const LoadgenConfig& config) {
  MCP_REQUIRE(config.tenants > 0, "loadgen: need at least one tenant");
  MCP_REQUIRE(config.producers > 0, "loadgen: need at least one producer");

  // Tenant t's session parameters: the homogeneous mix is one cohort per
  // shard, the mixed mix cycles every wire strategy (several cohorts).
  static constexpr wire::StrategyKind kStrategyCycle[] = {
      wire::StrategyKind::kSharedLru, wire::StrategyKind::kStaticEvenLru,
      wire::StrategyKind::kSharedFifo, wire::StrategyKind::kStaticEvenFifo};
  const auto tenant_params = [&config](std::size_t t) {
    wire::SessionParams params{
        static_cast<std::uint32_t>(config.cores_per_tenant),
        static_cast<std::uint32_t>(config.cache_size),
        static_cast<std::uint32_t>(config.fault_penalty), config.strategy};
    if (config.mix == TenantMix::kMixed) {
      params.strategy = kStrategyCycle[t % std::size(kStrategyCycle)];
    }
    return params;
  };

  // Build every tenant's trace and wire document up front — excluded from
  // the timed region, the loadgen measures the daemon, not the generator.
  CoreWorkload core_model;
  core_model.pattern = AccessPattern::kWorkingSet;
  core_model.num_pages = config.pages_per_core;
  core_model.length = config.requests_per_core;
  core_model.working_set = std::max<std::size_t>(4, config.cache_size /
                                                        config.cores_per_tenant);
  if (config.mix == TenantMix::kHomogeneous) {
    // The cohort scenario models correctly-provisioned identical tenants:
    // each core's page universe is exactly its cache share, so past the
    // cold misses the daemon runs at an advisory service's design-point
    // hit rate.  The mixed replay keeps the oversubscribed shape (a
    // 128-page universe churning against a 16-page share) that stresses
    // the fault path instead.
    core_model.num_pages = core_model.working_set;
  }

  std::vector<std::shared_ptr<const std::vector<std::byte>>> docs;
  docs.reserve(config.tenants);
  std::uint64_t pairs = 0;
  std::uint64_t seed_state = config.seed;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    const RequestSet trace = make_workload(homogeneous_spec(
        config.cores_per_tenant, core_model, /*disjoint=*/true,
        splitmix64(seed_state)));
    pairs += trace.total_requests();
    // Session ids start at 1; id 0 is reserved for "no session" in traces.
    docs.push_back(
        encode_tenant(trace, t + 1, tenant_params(t), config.chunk_pairs));
  }

  McpdConfig daemon_config;
  daemon_config.num_shards = config.num_shards;
  daemon_config.enable_batching = config.enable_batching;
  Mcpd daemon(daemon_config);

  // Producers own disjoint tenant slices; each submits its documents, then
  // blocks until every one of its sessions replied to the trailing query.
  std::vector<std::uint64_t> producer_faults(config.producers, 0);
  const auto producer_body = [&](std::size_t producer) {
    const auto mailbox = std::make_shared<ResponseMailbox>();
    std::size_t mine = 0;
    for (std::size_t t = producer; t < config.tenants;
         t += config.producers) {
      daemon.submit_document(docs[t], mailbox);
      ++mine;
    }
    std::uint64_t faults = 0;
    for (std::size_t got = 0; got < mine; ++got) {
      const std::vector<std::byte> doc = mailbox->wait();
      wire::WireReader reader(doc);
      wire::FrameView frame;
      MCP_REQUIRE(reader.next(frame), "loadgen: empty reply");
      const wire::FaultCountsReply reply = wire::decode_fault_counts(frame);
      MCP_REQUIRE(reply.finished, "loadgen: unfinished session replied");
      for (const Count f : reply.per_core_faults) faults += f;
    }
    producer_faults[producer] = faults;
  };

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> producers;
    producers.reserve(config.producers);
    for (std::size_t c = 0; c < config.producers; ++c) {
      producers.emplace_back(producer_body, c);
    }
    for (std::thread& thread : producers) thread.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  daemon.stop();

  LoadgenResult result;
  result.shards = config.num_shards;
  result.tenants = config.tenants;
  result.pairs = pairs;
  result.wall_seconds = wall;
  result.requests_per_sec =
      wall > 0.0 ? static_cast<double>(pairs) / wall : 0.0;
  for (const std::uint64_t faults : producer_faults) {
    result.total_faults += faults;
  }
  for (std::size_t s = 0; s < daemon.num_shards(); ++s) {
    const ShardStats& stats = daemon.shard_stats(s);
    if (stats.busy_ns > 0 && stats.pairs > 0) {
      result.capacity_rps += static_cast<double>(stats.pairs) /
                             (static_cast<double>(stats.busy_ns) * 1e-9);
    }
    result.epochs += stats.epochs;
    result.bad_frames += stats.bad_frames;
    result.batched_sessions += stats.batched_sessions;
    result.scalar_sessions += stats.scalar_sessions;
    result.lane_steps += stats.lane_steps;
    result.answer_ns += stats.answer_ns;
    result.epoch_latency.merge(stats.epoch_latency);
  }
  MCP_REQUIRE(result.bad_frames == 0, "loadgen: daemon dropped frames");
  return result;
}

}  // namespace mcp::service
