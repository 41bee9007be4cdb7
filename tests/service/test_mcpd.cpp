// mcpd end-to-end: shard determinism (the acceptance property — per-session
// results bit-identical to a direct library simulation at every shard
// count), query semantics against the library oracles, and protocol error
// tolerance.  CONCURRENCY label: the daemon's shard workers + client
// threads run under ThreadSanitizer in the tsan-full CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "policies/mattson.hpp"
#include "policies/policy_registry.hpp"
#include "service/mcpd.hpp"
#include "strategies/partition.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "test_support.hpp"

namespace mcp::service {
namespace {

using wire::SessionParams;
using wire::StrategyKind;

struct Tenant {
  std::uint64_t session = 0;
  RequestSet trace;
  SessionParams params;
};

/// `count` mixed tenants plus one shared tenant with fewer cells than
/// cores (K < p).  Its cores request identical sequences, so they fault on
/// the same page in the same step and at most one page is ever in flight:
/// the run cannot find every cell reserved, and the oracle finishes it.
std::vector<Tenant> make_tenants(std::size_t count, Rng& rng) {
  std::vector<Tenant> tenants(count + 1);
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t cores = 1 + t % 4;
    tenants[t].session = t + 1;
    tenants[t].trace =
        testing::random_disjoint_workload(rng, cores, 12, 80 + 13 * t);
    tenants[t].params =
        SessionParams{static_cast<std::uint32_t>(cores), 8, 3,
                      t % 2 == 0 ? StrategyKind::kSharedLru
                                 : StrategyKind::kStaticEvenLru};
  }
  Tenant& narrow = tenants[count];
  narrow.session = count + 1;
  const RequestSet one = testing::random_disjoint_workload(rng, 1, 6, 90);
  for (int core = 0; core < 3; ++core) {
    narrow.trace.add_sequence(one.sequence(0));
  }
  narrow.params = SessionParams{3, 2, 2, StrategyKind::kSharedLru};
  return tenants;
}

/// The library-side oracle for one tenant: a direct Simulator::run with
/// the strategy the daemon instantiates for its StrategyKind.
RunStats oracle_run(const Tenant& tenant) {
  SimConfig config;
  config.cache_size = tenant.params.cache_size;
  config.fault_penalty = tenant.params.fault_penalty;
  config.record_fault_timeline = false;
  Simulator sim(config);
  if (tenant.params.strategy == StrategyKind::kSharedLru) {
    SharedStrategy strategy(make_policy_factory("lru"));
    return sim.run(tenant.trace, strategy);
  }
  StaticPartitionStrategy strategy(
      even_partition(tenant.params.cache_size, tenant.trace.num_cores()),
      make_policy_factory("lru"));
  return sim.run(tenant.trace, strategy);
}

/// Identically-configured tenants with traces of different lengths, so
/// sessions end raggedly.
std::vector<Tenant> make_homogeneous_tenants(std::size_t count, Rng& rng) {
  std::vector<Tenant> tenants(count);
  for (std::size_t t = 0; t < count; ++t) {
    tenants[t].session = t + 1;
    tenants[t].trace =
        testing::random_disjoint_workload(rng, 4, 10, 60 + 17 * t);
    tenants[t].params = SessionParams{4, 8, 3, StrategyKind::kSharedLru};
  }
  return tenants;
}

/// Drives every tenant through a daemon with `shards` shards using small
/// chunks, queries fault counts, and checks the replies against the
/// library oracle field by field.  Returns the daemon's merged counters.
ShardStats expect_shard_determinism(std::size_t shards,
                                    const std::vector<Tenant>& tenants,
                                    std::size_t chunk_pairs,
                                    bool use_run_frames = false) {
  McpdConfig daemon_config;
  daemon_config.num_shards = shards;
  Mcpd daemon(daemon_config);
  McpdClient client(daemon);
  for (const Tenant& tenant : tenants) {
    client.open(tenant.session, tenant.params);
  }
  // Interleave all tenants' chunks to scramble arrival order across shards.
  std::vector<std::vector<std::size_t>> cursor(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    cursor[t].assign(tenants[t].trace.num_cores(), 0);
  }
  bool emitted = true;
  while (emitted) {
    emitted = false;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const Tenant& tenant = tenants[t];
      for (CoreId core = 0; core < tenant.trace.num_cores(); ++core) {
        const RequestSequence& seq = tenant.trace.sequence(core);
        if (cursor[t][core] >= seq.size()) continue;
        const std::size_t n =
            std::min(chunk_pairs, seq.size() - cursor[t][core]);
        const std::span<const PageId> slice =
            seq.pages().subspan(cursor[t][core], n);
        if (use_run_frames) {
          client.send_core_run(tenant.session,
                               static_cast<std::uint32_t>(core), slice);
        } else {
          client.send_core_pages(tenant.session,
                                 static_cast<std::uint32_t>(core), slice);
        }
        cursor[t][core] += n;
        emitted = true;
      }
    }
  }
  for (const Tenant& tenant : tenants) client.close(tenant.session);

  for (const Tenant& tenant : tenants) {
    const wire::FaultCountsReply reply =
        client.query_faults(tenant.session, 1000 + tenant.session);
    const RunStats want = oracle_run(tenant);
    SCOPED_TRACE("session " + std::to_string(tenant.session) + " shards " +
                 std::to_string(shards));
    EXPECT_TRUE(reply.finished);
    EXPECT_EQ(reply.requests_served, want.total_requests());
    EXPECT_EQ(reply.end_time, want.end_time);
    EXPECT_EQ(reply.per_core_faults.size(), want.num_cores());
    for (CoreId j = 0; j < want.num_cores() &&
                       j < static_cast<CoreId>(reply.per_core_faults.size());
         ++j) {
      EXPECT_EQ(reply.per_core_faults[j], want.core(j).faults) << "core " << j;
      EXPECT_EQ(reply.completion_times[j], want.core(j).completion_time)
          << "core " << j;
    }
  }
  daemon.stop();
  const ShardStats total = daemon.total_stats();
  EXPECT_EQ(total.bad_frames, 0u);
  return total;
}

TEST(Mcpd, ShardCountNeverChangesResults) {
  Rng rng(0xDEED);
  const std::vector<Tenant> tenants = make_tenants(9, rng);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    expect_shard_determinism(shards, tenants, /*chunk_pairs=*/7);
  }
  // Chunk size must be equally irrelevant.
  expect_shard_determinism(2, tenants, /*chunk_pairs=*/1);
  expect_shard_determinism(2, tenants, /*chunk_pairs=*/1000);
}

TEST(Mcpd, HomogeneousCohortMatchesOracleAtEveryShardAndChunkSize) {
  // A cohort of identical tenants.  Every reply is checked against the
  // direct Simulator oracle, so passing at all grid points proves the
  // per-session kernels bit-identical to the library regardless of sharding
  // or arrival chunking.
  Rng rng(0xBEEF);
  const std::vector<Tenant> tenants = make_homogeneous_tenants(10, rng);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    for (const std::size_t chunk : {1u, 7u, 1000u}) {
      const ShardStats total =
          expect_shard_determinism(shards, tenants, chunk);
      EXPECT_EQ(total.batched_sessions, tenants.size());
      EXPECT_EQ(total.scalar_sessions, 0u);
      EXPECT_GT(total.lane_steps, 0u);
      EXPECT_EQ(total.sessions_finished, tenants.size());
    }
  }
}

TEST(Mcpd, RunFramesIngestIdenticallyToChunkFrames) {
  // The compact kRequestRun framing must be indistinguishable from
  // kRequestChunk once ingested: every reply is oracle-checked, at run
  // lengths that do and do not hit the alignment pad.
  Rng rng(0xF00D);
  const std::vector<Tenant> mixed = make_tenants(9, rng);
  const std::vector<Tenant> cohort = make_homogeneous_tenants(10, rng);
  for (const std::size_t chunk : {1u, 7u, 1000u}) {
    expect_shard_determinism(2, mixed, chunk, /*use_run_frames=*/true);
    const ShardStats total =
        expect_shard_determinism(2, cohort, chunk, /*use_run_frames=*/true);
    EXPECT_EQ(total.batched_sessions, cohort.size());
  }
}

TEST(Mcpd, CohortHandlesMidStreamFinishersAndLateJoiners) {
  // Sessions that finish while the rest of their cohort is parked
  // mid-flight release their kernels, and a session opened after the
  // others have been stepping still produces oracle-exact results.
  Rng rng(0xACE1);
  std::vector<Tenant> tenants = make_homogeneous_tenants(6, rng);
  McpdConfig daemon_config;
  daemon_config.num_shards = 2;
  Mcpd daemon(daemon_config);
  McpdClient client(daemon);

  const auto send_slice = [&client](const Tenant& tenant, std::size_t num,
                                    std::size_t den) {
    for (CoreId core = 0; core < tenant.trace.num_cores(); ++core) {
      const std::span<const PageId> pages =
          tenant.trace.sequence(core).pages();
      const std::size_t mid = pages.size() * num / den;
      client.send_core_pages(tenant.session, static_cast<std::uint32_t>(core),
                             num == 1 ? pages.first(mid) : pages.subspan(mid / 2));
    }
  };
  const auto finish_and_check = [&client](const Tenant& tenant) {
    client.close(tenant.session);
    const wire::FaultCountsReply reply =
        client.query_faults(tenant.session, 500 + tenant.session);
    const RunStats want = oracle_run(tenant);
    SCOPED_TRACE("session " + std::to_string(tenant.session));
    EXPECT_TRUE(reply.finished);
    EXPECT_EQ(reply.requests_served, want.total_requests());
    EXPECT_EQ(reply.end_time, want.end_time);
    for (CoreId j = 0; j < want.num_cores(); ++j) {
      EXPECT_EQ(reply.per_core_faults[j], want.core(j).faults) << "core " << j;
    }
  };

  for (const Tenant& tenant : tenants) client.open(tenant.session, tenant.params);
  // Everyone gets the first half of their trace and stalls on an open feed.
  for (const Tenant& tenant : tenants) send_slice(tenant, 1, 2);
  // Tenants 0 and 1 run to the end and leave the cohort early.
  for (std::size_t t : {0u, 1u}) {
    send_slice(tenants[t], 2, 2);
    finish_and_check(tenants[t]);
  }
  // A new session joins the (still live) cohort and completes.
  Tenant late;
  late.session = 100;
  late.trace = testing::random_disjoint_workload(rng, 4, 10, 140);
  late.params = tenants[0].params;
  client.open(late.session, late.params);
  send_slice(late, 1, 2);
  send_slice(late, 2, 2);
  finish_and_check(late);
  // The stragglers finish last.
  for (std::size_t t = 2; t < tenants.size(); ++t) {
    send_slice(tenants[t], 2, 2);
    finish_and_check(tenants[t]);
  }

  daemon.stop();
  const ShardStats total = daemon.total_stats();
  EXPECT_EQ(total.bad_frames, 0u);
  EXPECT_EQ(total.batched_sessions, tenants.size() + 1);
  EXPECT_EQ(total.sessions_finished, tenants.size() + 1);
}

/// A fault-curve reply at `max_k` must equal the library's curves.
void expect_curve_matches_library(const Tenant& tenant, std::uint32_t max_k,
                                  const wire::FaultCurveReply& reply) {
  EXPECT_EQ(reply.max_k, max_k);
  EXPECT_EQ(reply.curves, lru_fault_curve_batch(tenant.trace, max_k))
      << "max_k " << max_k;
}

/// Partition advice must equal the offline search over the library's
/// curves at K.
void expect_advice_matches_library(const Tenant& tenant,
                                   const wire::PartitionAdviceReply& reply) {
  const std::size_t K = tenant.params.cache_size;
  const PartitionSearchResult want =
      optimal_partition_from_curves(lru_fault_curve_batch(tenant.trace, K), K);
  EXPECT_EQ(reply.predicted_faults, want.faults);
  ASSERT_EQ(reply.cells_per_core.size(), want.partition.size());
  for (std::size_t j = 0; j < want.partition.size(); ++j) {
    EXPECT_EQ(reply.cells_per_core[j], want.partition[j]);
  }
}

/// Streams `tenant` into `daemon` and asks for its fault curves at every
/// `max_ks` entry plus partition advice, twice: parked before close, so the
/// finishing session answers them as one batch from one shared scan per
/// core, then again after finish, when each query runs its own scan.
void expect_lru_queries_match_library(
    Mcpd& daemon, const Tenant& tenant,
    const std::vector<std::uint32_t>& max_ks) {
  McpdClient client(daemon);
  client.open(tenant.session, tenant.params);
  for (CoreId core = 0; core < tenant.trace.num_cores(); ++core) {
    client.send_core_pages(tenant.session, core,
                           tenant.trace.sequence(core).pages());
  }
  // Query ids 1..max_ks.size() are the curves, the next one the advice.
  for (std::size_t i = 0; i < max_ks.size(); ++i) {
    client.post_query_fault_curve(tenant.session, i + 1, max_ks[i]);
  }
  client.post_query_partition(tenant.session, max_ks.size() + 1);
  client.close(tenant.session);
  // One shard delivers a session's replies in posting order.
  for (std::size_t i = 0; i <= max_ks.size(); ++i) {
    std::vector<std::byte> storage;
    const wire::FrameView frame = client.wait_reply(storage);
    SCOPED_TRACE("query " + std::to_string(i + 1) + " in the finish batch");
    if (i < max_ks.size()) {
      ASSERT_EQ(frame.type, wire::FrameType::kFaultCurve);
      const wire::FaultCurveReply reply = wire::decode_fault_curve(frame);
      EXPECT_EQ(reply.query_id, i + 1);
      expect_curve_matches_library(tenant, max_ks[i], reply);
    } else {
      ASSERT_EQ(frame.type, wire::FrameType::kPartitionAdvice);
      const wire::PartitionAdviceReply reply =
          wire::decode_partition_advice(frame);
      EXPECT_EQ(reply.query_id, i + 1);
      expect_advice_matches_library(tenant, reply);
    }
  }
  SCOPED_TRACE("queries after finish");
  std::uint64_t query_id = 100;
  for (const std::uint32_t max_k : max_ks) {
    expect_curve_matches_library(
        tenant, max_k,
        client.query_fault_curve(tenant.session, ++query_id, max_k));
  }
  expect_advice_matches_library(
      tenant, client.query_partition(tenant.session, ++query_id));
}

TEST(Mcpd, FaultCurveMatchesMattsonKernel) {
  Rng rng(0xCAFE);
  Tenant tenant;
  tenant.session = 5;
  tenant.trace = testing::random_disjoint_workload(rng, 3, 16, 200);
  tenant.params = SessionParams{3, 8, 2, StrategyKind::kSharedLru};

  Mcpd daemon(McpdConfig{2});
  // max_k above K (the batch's scan width), 0, below K and at K.
  expect_lru_queries_match_library(daemon, tenant, {12, 0, 5, 8});
  daemon.stop();
  // Building those replies is counted, and inside the shard's busy time.
  const ShardStats total = daemon.total_stats();
  EXPECT_GT(total.answer_ns, 0u);
  EXPECT_LE(total.answer_ns, total.busy_ns);
}

TEST(Mcpd, PartitionAdviceMatchesOfflineSearch) {
  Rng rng(0xF00D);
  Tenant tenant;
  tenant.session = 6;
  tenant.trace = testing::random_disjoint_workload(rng, 3, 10, 150);
  tenant.params = SessionParams{3, 9, 2, StrategyKind::kSharedLru};

  Mcpd daemon(McpdConfig{1});
  // Curves narrower than K only: the partition query sets the scan width.
  expect_lru_queries_match_library(daemon, tenant, {0, 4});
  // The same session shape with curves at 0, below and above K.
  tenant.session = 7;
  expect_lru_queries_match_library(daemon, tenant, {0, 4, 15});
}

TEST(Mcpd, QueryBeforeCloseIsParkedUntilFinish) {
  Rng rng(0x5555);
  Tenant tenant;
  tenant.session = 7;
  tenant.trace = testing::random_disjoint_workload(rng, 2, 8, 60);
  tenant.params = SessionParams{2, 6, 1, StrategyKind::kSharedLru};

  Mcpd daemon(McpdConfig{2});
  McpdClient client(daemon);
  client.open(tenant.session, tenant.params);
  // Query first, then the data: the reply must still be the finished one.
  client.post_query_faults(tenant.session, 99);
  for (CoreId core = 0; core < 2; ++core) {
    client.send_core_pages(tenant.session, core,
                           tenant.trace.sequence(core).pages());
  }
  client.close(tenant.session);

  std::vector<std::byte> storage;
  const wire::FrameView frame = client.wait_reply(storage);
  ASSERT_EQ(frame.type, wire::FrameType::kFaultCounts);
  const wire::FaultCountsReply reply = wire::decode_fault_counts(frame);
  EXPECT_EQ(reply.query_id, 99u);
  EXPECT_TRUE(reply.finished);
  const RunStats want = oracle_run(tenant);
  EXPECT_EQ(reply.requests_served, want.total_requests());
}

TEST(Mcpd, ProtocolErrorsAreCountedNotFatal) {
  Mcpd daemon(McpdConfig{2});
  McpdClient client(daemon);
  const SessionParams params{2, 4, 1, StrategyKind::kSharedLru};

  client.open(1, params);
  client.open(1, params);  // duplicate open: dropped, counted
  const PageId pages[] = {1, 2, 3};
  client.send_core_pages(2, 0, pages);  // unknown session: dropped
  client.send_core_pages(1, 0, pages);
  client.send_core_pages(1, 1, pages);
  client.close(1);
  const wire::FaultCountsReply reply = client.query_faults(1, 1);
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(reply.requests_served, 6u);

  daemon.stop();
  EXPECT_EQ(daemon.total_stats().bad_frames, 2u);
  EXPECT_EQ(daemon.total_stats().sessions_opened, 1u);
  EXPECT_EQ(daemon.total_stats().sessions_finished, 1u);
}

TEST(Mcpd, OutOfRangePageIdIsABadFrameNotACohortStall) {
  // Page ids at or above kMaxWirePageId, kInvalidPage among them, are
  // rejected at ingest.  Unchecked, 0xFFFFFFFF wrapped the session's page
  // bound to 0 and the kernel's bounds check then failed every step.
  Rng rng(0xBAD1D);
  const std::vector<Tenant> tenants = make_homogeneous_tenants(2, rng);
  const Tenant& good = tenants[0];
  const Tenant& hostile = tenants[1];
  Mcpd daemon(McpdConfig{1});  // one shard
  McpdClient client(daemon);
  for (const Tenant& tenant : tenants) {
    client.open(tenant.session, tenant.params);
  }
  const PageId bad_run[] = {1, kInvalidPage, 2};
  client.send_core_run(hostile.session, 0, bad_run);
  const PageId bad_chunk[] = {3, wire::kMaxWirePageId};
  client.send_core_pages(hostile.session, 1, bad_chunk);
  for (const Tenant& tenant : tenants) {
    for (CoreId core = 0; core < tenant.trace.num_cores(); ++core) {
      client.send_core_run(tenant.session, static_cast<std::uint32_t>(core),
                           tenant.trace.sequence(core).pages());
    }
    client.post_query_faults(tenant.session, tenant.session);
    client.close(tenant.session);
  }
  daemon.stop();
  const ShardStats total = daemon.total_stats();
  EXPECT_EQ(total.bad_frames, 2u);
  ASSERT_EQ(total.sessions_finished, 2u);
  // Both sessions replied; a rejected frame appends nothing, so the hostile
  // session ran exactly its well-formed requests.
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    std::vector<std::byte> storage;
    const wire::FrameView frame = client.wait_reply(storage);
    ASSERT_EQ(frame.type, wire::FrameType::kFaultCounts);
    const wire::FaultCountsReply reply = wire::decode_fault_counts(frame);
    const Tenant& tenant = reply.query_id == good.session ? good : hostile;
    const RunStats want = oracle_run(tenant);
    SCOPED_TRACE("session " + std::to_string(tenant.session));
    EXPECT_EQ(reply.requests_served, want.total_requests());
    EXPECT_EQ(reply.end_time, want.end_time);
    ASSERT_EQ(reply.per_core_faults.size(), want.num_cores());
    for (CoreId j = 0; j < want.num_cores(); ++j) {
      EXPECT_EQ(reply.per_core_faults[j], want.core(j).faults) << "core " << j;
    }
  }
}

TEST(Mcpd, FailedSessionOpenDoesNotPoisonTheShard) {
  Mcpd daemon(McpdConfig{1});
  McpdClient client(daemon);
  // Static partition needs cache_size >= num_cores, so this open's Session
  // construction throws inside the shard.  The frame must be counted and
  // dropped without leaving a null session entry behind.
  client.open(1, SessionParams{4, 2, 1, StrategyKind::kStaticEvenLru});
  const PageId pages[] = {1, 2, 3};
  client.send_core_pages(1, 0, pages);  // session 1 never opened: dropped
  // The shard keeps serving healthy sessions afterwards.
  client.open(2, SessionParams{1, 2, 1, StrategyKind::kSharedLru});
  client.send_core_pages(2, 0, pages);
  client.close(2);
  const wire::FaultCountsReply reply = client.query_faults(2, 9);
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(reply.requests_served, 3u);
  daemon.stop();
  EXPECT_EQ(daemon.total_stats().bad_frames, 2u);  // bad open + orphan chunk
  EXPECT_EQ(daemon.total_stats().sessions_opened, 1u);
}

/// Pops replies from `mailbox` until `count` arrived or 10 s passed, so a
/// reply the daemon never sends fails the test instead of hanging it.
std::vector<std::vector<std::byte>> poll_replies(ResponseMailbox& mailbox,
                                                 std::size_t count) {
  std::vector<std::vector<std::byte>> replies;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replies.size() < count &&
         std::chrono::steady_clock::now() < deadline) {
    if (std::optional<std::vector<std::byte>> doc = mailbox.try_pop()) {
      replies.push_back(*std::move(doc));
    } else {
      std::this_thread::yield();
    }
  }
  return replies;
}

TEST(Mcpd, AbortedSessionAnswersItsQueriesWithTheAbortError) {
  // Shared cache, K = 1 < p = 2: core 0's fault on page 10 reserves the
  // only cell, so core 1's fault on page 20 in the same step finds no
  // evictable page and the simulation aborts.  The session fails: its
  // parked and later queries get kError replies carrying the abort, and a
  // healthy session on the same shard is unaffected.
  Rng rng(0xAB0);
  Tenant healthy;
  healthy.session = 1;
  healthy.trace = testing::random_disjoint_workload(rng, 2, 6, 70);
  healthy.params = SessionParams{2, 4, 1, StrategyKind::kSharedLru};
  const std::uint64_t doomed = 2;
  const PageId core0[] = {10, 11};
  const PageId core1[] = {20, 21};

  Mcpd daemon(McpdConfig{1});  // both sessions on the one shard
  const auto mailbox = std::make_shared<ResponseMailbox>();
  wire::WireWriter writer;
  writer.session_open(doomed, SessionParams{2, 1, 1, StrategyKind::kSharedLru});
  writer.session_open(healthy.session, healthy.params);
  writer.request_chunk(doomed, 0, core0);
  writer.request_chunk(doomed, 1, core1);
  for (CoreId core = 0; core < 2; ++core) {
    writer.request_chunk(healthy.session, core,
                         healthy.trace.sequence(core).pages());
  }
  writer.session_close(doomed);
  writer.session_close(healthy.session);
  writer.query_faults(doomed, 21);
  writer.query_faults(healthy.session, 11);
  daemon.submit_document(
      std::make_shared<const std::vector<std::byte>>(std::move(writer).take()),
      mailbox);

  std::vector<std::vector<std::byte>> replies = poll_replies(*mailbox, 2);
  // A query posted after the failure is answered the same way.
  wire::WireWriter later;
  later.query_fault_curve(doomed, 22, 4);
  daemon.submit_document(
      std::make_shared<const std::vector<std::byte>>(std::move(later).take()),
      mailbox);
  for (std::vector<std::byte>& doc : poll_replies(*mailbox, 1)) {
    replies.push_back(std::move(doc));
  }
  ASSERT_EQ(replies.size(), 3u);

  std::size_t errors = 0;
  for (const std::vector<std::byte>& doc : replies) {
    wire::WireReader reader(doc);
    wire::FrameView frame;
    ASSERT_TRUE(reader.next(frame));
    if (frame.session == doomed) {
      ASSERT_EQ(frame.type, wire::FrameType::kError);
      const wire::ErrorReply error = wire::decode_error(frame);
      EXPECT_TRUE(error.query_id == 21 || error.query_id == 22);
      EXPECT_NE(error.message.find("no evictable page"), std::string::npos)
          << error.message;
      ++errors;
      continue;
    }
    ASSERT_EQ(frame.type, wire::FrameType::kFaultCounts);
    const wire::FaultCountsReply reply = wire::decode_fault_counts(frame);
    EXPECT_EQ(reply.query_id, 11u);
    const RunStats want = oracle_run(healthy);
    EXPECT_EQ(reply.requests_served, want.total_requests());
    EXPECT_EQ(reply.end_time, want.end_time);
    ASSERT_EQ(reply.per_core_faults.size(), want.num_cores());
    for (CoreId j = 0; j < want.num_cores(); ++j) {
      EXPECT_EQ(reply.per_core_faults[j], want.core(j).faults) << "core " << j;
    }
  }
  EXPECT_EQ(errors, 2u);
  daemon.stop();
  const ShardStats total = daemon.total_stats();
  EXPECT_EQ(total.sessions_finished, 2u);
  EXPECT_EQ(total.bad_frames, 0u);
}

TEST(Mcpd, InfeasiblePartitionQueryFailsInsteadOfHanging) {
  // A shared-strategy session with cache_size < num_cores opens fine, but
  // partition advice needs >= 1 cell per core: the daemon must send a
  // kError reply (surfaced as InputError) rather than dropping the query
  // and deadlocking the blocking client.
  Mcpd daemon(McpdConfig{1});
  McpdClient client(daemon);
  client.open(1, SessionParams{4, 2, 1, StrategyKind::kSharedLru});
  const PageId pages[] = {1, 2};
  for (CoreId core = 0; core < 4; ++core) {
    client.send_core_pages(1, static_cast<std::uint32_t>(core), pages);
  }
  client.close(1);
  EXPECT_THROW((void)client.query_partition(1, 7), InputError);
  // The session itself stays healthy: other queries still answer.
  const wire::FaultCountsReply reply = client.query_faults(1, 8);
  EXPECT_TRUE(reply.finished);
  daemon.stop();
  EXPECT_EQ(daemon.total_stats().bad_frames, 0u);
}

TEST(Mcpd, RejectedQueryDoesNotLoseLaterReplies) {
  Mcpd daemon(McpdConfig{1});
  McpdClient client(daemon);
  client.open(1, SessionParams{2, 1, 1, StrategyKind::kSharedLru});
  // Infeasible partition query posted before any data: the error reply is
  // immediate, and the session must still answer the fault-count query
  // that follows.
  client.post_query_partition(1, 70);
  const PageId pages[] = {1, 2, 3};
  client.send_core_pages(1, 0, pages);
  client.send_core_pages(1, 1, pages);
  client.close(1);
  const wire::FaultCountsReply ok = client.query_faults(1, 71);
  EXPECT_TRUE(ok.finished);
  EXPECT_EQ(ok.requests_served, 6u);
  // The stashed out-of-order reply for query 70 is the error frame.
  std::vector<std::byte> storage;
  const wire::FrameView frame = client.wait_reply(storage);
  ASSERT_EQ(frame.type, wire::FrameType::kError);
  const wire::ErrorReply error = wire::decode_error(frame);
  EXPECT_EQ(error.query_id, 70u);
  EXPECT_NE(error.message.find("cache_size >= num_cores"), std::string::npos);
  daemon.stop();
  EXPECT_EQ(daemon.total_stats().bad_frames, 0u);
}

TEST(Mcpd, ClientMayBeDestroyedWithQueriesOutstanding) {
  // post_query_* is fire-and-forget: a client that dies before its reply
  // arrives must not leave the shard delivering into freed memory.  The
  // parked query's mailbox reference goes weak, so the reply is dropped.
  Mcpd daemon(McpdConfig{2});
  const SessionParams params{1, 2, 1, StrategyKind::kSharedLru};
  {
    McpdClient doomed(daemon);
    doomed.open(1, params);
    doomed.post_query_faults(1, 5);  // parks: no data buffered yet
  }
  McpdClient client(daemon);
  const PageId pages[] = {1, 2, 1};
  client.send_core_pages(1, 0, pages);
  client.close(1);
  // Replies go to the querying frame's mailbox, so a second client can
  // still query the session the first one opened.
  const wire::FaultCountsReply reply = client.query_faults(1, 6);
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(reply.requests_served, 3u);
  daemon.stop();
  EXPECT_EQ(daemon.total_stats().bad_frames, 0u);
}

TEST(Mcpd, StatsAccountForAllPairs) {
  Rng rng(0x123);
  const std::vector<Tenant> tenants = make_tenants(4, rng);
  std::uint64_t expected_pairs = 0;

  Mcpd daemon(McpdConfig{4});
  McpdClient client(daemon);
  for (const Tenant& tenant : tenants) {
    client.open(tenant.session, tenant.params);
    for (CoreId core = 0; core < tenant.trace.num_cores(); ++core) {
      client.send_core_pages(tenant.session, core,
                             tenant.trace.sequence(core).pages());
      expected_pairs += tenant.trace.sequence(core).size();
    }
    client.close(tenant.session);
  }
  for (const Tenant& tenant : tenants) {
    (void)client.query_faults(tenant.session, tenant.session);
  }
  daemon.stop();
  const ShardStats total = daemon.total_stats();
  EXPECT_EQ(total.pairs, expected_pairs);
  EXPECT_EQ(total.sessions_opened, tenants.size());
  EXPECT_EQ(total.sessions_finished, tenants.size());
  EXPECT_EQ(total.bad_frames, 0u);
  EXPECT_GT(total.epochs, 0u);
  EXPECT_EQ(total.epoch_latency.count(), total.epochs);
}

}  // namespace
}  // namespace mcp::service
