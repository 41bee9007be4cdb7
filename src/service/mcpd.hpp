// mcpd — the sharded multi-tenant paging-advisory daemon.
//
// Architecture (docs/MCPD.md):
//
//   clients ──frames──▶ Mcpd::submit ──hash(session)──▶ shard s
//                                                        │ MpscQueue ingress
//                                                        ▼
//                                           Shard worker thread (1 per shard)
//                                           epoch loop: drain → step → publish
//                                                        │
//   clients ◀──response frames── ResponseMailbox ◀───────┘
//
// Each shard owns the sessions hashed to it outright — no session state is
// shared between shards, so the only cross-thread traffic is the lock-free
// ingress queue and the response mailboxes.  A shard runs an *epoch* per
// wakeup: it drains every queued frame, steps each touched session as far
// as the buffered requests allow, then publishes one batch of responses.
// Every session owns a batch kernel (core/batch_engine.hpp) from open to
// finish, fed the session's growing trace and parked mid-step wherever the
// buffered requests run out, so per-session results are bit-identical to a
// direct simulate() of the full trace, regardless of shard count or
// arrival interleaving.  A simulation that aborts (a shared cache with
// K < p whose cells are all reserved by in-flight fetches) fails its
// session: every query on it gets the abort message as a kError reply.
// Queries (fault counts, LRU fault curves via the Mattson kernel, partition
// advice) are answered when the session finishes — the only point at which
// the answer is independent of arrival timing — and the LRU ones answered
// together share one scan.
//
// Transport is in-process loopback: a "frame" is bytes in the mcpwire
// format (wire_format.hpp) and delivery is a queue push.  A socket front
// end would sit entirely outside this file, decoding to the same frames.
//
// Static analysis: the daemon is deliberately mutex-free, so Clang's
// capability analysis has nothing to hold here (core/annotations.hpp
// documents when that applies).  Its concurrency discipline is checked two
// other ways: (1) the session map is *thread-confined* to their
// shard's worker thread — they are looked up, never iterated, and
// mcp_verify.py rule `unordered-iter` keeps hash order out of the response
// path; (2) every cross-thread handshake below (ingress pending_, stop_,
// mailbox delivered_) is an explicit-memory_order atomic, enforced by rule
// `atomic-order` over src/service.  The comments on each atomic field name
// the protocol it implements; the tsan-full CI job checks the claims
// dynamically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/stats.hpp"
#include "core/types.hpp"
#include "service/mpsc_queue.hpp"
#include "service/wire_format.hpp"

namespace mcp::service {

/// One response frame travelling shard -> client: a complete single-frame
/// mcpwire document (magic + frame).
struct ResponseMsg : MpscHook {
  std::vector<std::byte> doc;
};

/// A client's reply inbox.  Any shard may deliver into it concurrently;
/// exactly one client thread consumes.  wait() blocks via atomic wait —
/// no mutex, no condition variable.
class ResponseMailbox {
 public:
  ResponseMailbox() = default;
  ~ResponseMailbox();

  /// Called by shard threads.  Takes ownership of the bytes.
  void deliver(std::vector<std::byte> doc);

  /// Non-blocking: pops one response document if available.
  [[nodiscard]] std::optional<std::vector<std::byte>> try_pop();

  /// Blocks until a response is available, then pops it.
  [[nodiscard]] std::vector<std::byte> wait();

 private:
  MpscQueue<ResponseMsg> queue_;
  std::atomic<std::uint64_t> delivered_{0};
  std::uint64_t taken_ = 0;  // consumer-owned
};

/// One ingress message: a view of a single frame inside a client-owned
/// document.  The shared_ptr keeps the bytes alive across the queue — the
/// shard parses the frame in place, so a request chunk is never copied
/// between client and simulator feed.
struct IngressMsg : MpscHook {
  std::shared_ptr<const std::vector<std::byte>> doc;
  std::size_t offset = 0;  ///< Frame start within *doc.
  std::size_t length = 0;  ///< Header + payload bytes.
  /// Where replies to this frame's queries go.  Shared ownership keeps the
  /// mailbox alive while the frame is queued; parked queries then downgrade
  /// to a weak_ptr, so a client may be destroyed with queries outstanding —
  /// its replies are dropped, never delivered into freed memory.
  std::shared_ptr<ResponseMailbox> reply_to;
};

/// Counters a shard accumulates over its lifetime.  Snapshots are safe
/// only after Mcpd::stop() (the worker thread owns them while running).
struct ShardStats {
  std::uint64_t frames = 0;         ///< Ingress frames processed.
  std::uint64_t pairs = 0;          ///< Request pairs ingested.
  std::uint64_t epochs = 0;         ///< Wakeups that processed >= 1 frame.
  std::uint64_t sessions_opened = 0;
  /// Sessions whose simulation ended or aborted (a failed session).
  std::uint64_t sessions_finished = 0;
  std::uint64_t batched_sessions = 0;  ///< Opened onto a kernel: every one.
  /// Always 0: every session runs on a kernel.  Kept because the
  /// repository benchmark reads it.
  std::uint64_t scalar_sessions = 0;
  std::uint64_t lane_steps = 0;        ///< Kernel step-loop iterations run.
  std::uint64_t bad_frames = 0;     ///< Malformed/out-of-protocol, dropped.
  std::uint64_t busy_ns = 0;        ///< CLOCK_THREAD_CPUTIME_ID spent in epochs.
  /// The part of busy_ns spent building query replies: curve scans,
  /// partition search and encoding (two clock reads per answered query).
  std::uint64_t answer_ns = 0;
  LatencyHistogram epoch_latency;   ///< Wall ns per epoch (drain->publish).
};

/// Daemon configuration.
struct McpdConfig {
  std::size_t num_shards = 1;
  /// Queries arriving before a session finishes park inside the session;
  /// at most this many may be parked (guards a client leak).
  std::size_t max_parked_queries = 1024;
};

class Shard;

/// The daemon: owns `num_shards` shards, each with a dedicated worker
/// thread, and routes frames to shards by session-id hash.
class Mcpd {
 public:
  explicit Mcpd(McpdConfig config);
  ~Mcpd();

  Mcpd(const Mcpd&) = delete;
  Mcpd& operator=(const Mcpd&) = delete;

  /// Routes every frame of `doc` (a complete mcpwire document) to its
  /// session's shard.  Thread-safe; frames of one session submitted by one
  /// thread are processed in submission order.  Malformed documents throw
  /// InputError before anything is enqueued.  Must not be called
  /// concurrently with (or after) stop().
  void submit_document(std::shared_ptr<const std::vector<std::byte>> doc,
                       std::shared_ptr<ResponseMailbox> reply_to);

  /// Drains all shards and joins their workers.  Idempotent; called by the
  /// destructor.  After stop(), stats() snapshots are race-free.
  void stop();

  [[nodiscard]] std::size_t num_shards() const noexcept;

  /// Per-shard counters.  Only call after stop().
  [[nodiscard]] const ShardStats& shard_stats(std::size_t shard) const;

  /// Sum of shard_stats over shards (epoch histograms merged).  Only call
  /// after stop().
  [[nodiscard]] ShardStats total_stats() const;

  [[nodiscard]] std::size_t shard_of(std::uint64_t session) const noexcept;

 private:
  McpdConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopped_{false};
};

/// Blocking convenience client: wraps frame building, submission and reply
/// parsing around one ResponseMailbox.  One McpdClient per client thread.
class McpdClient {
 public:
  explicit McpdClient(Mcpd& daemon)
      : daemon_(&daemon), mailbox_(std::make_shared<ResponseMailbox>()) {}

  void open(std::uint64_t session, const wire::SessionParams& params);
  void send_pairs(std::uint64_t session,
                  std::span<const wire::WirePair> pairs);
  void send_core_pages(std::uint64_t session, std::uint32_t core,
                       std::span<const PageId> pages);
  /// Same requests as send_core_pages in the compact kRequestRun framing.
  void send_core_run(std::uint64_t session, std::uint32_t core,
                     std::span<const PageId> pages);
  void close(std::uint64_t session);

  /// Fire-and-forget query posts (replies arrive in the mailbox).
  void post_query_faults(std::uint64_t session, std::uint64_t query_id);
  void post_query_fault_curve(std::uint64_t session, std::uint64_t query_id,
                              std::uint32_t max_k);
  void post_query_partition(std::uint64_t session, std::uint64_t query_id);

  /// Blocking round trips (post + wait; replies to *other* outstanding
  /// queries arriving first are stashed and matched by query id).  A query
  /// the daemon rejects or fails to answer produces a kError reply, which
  /// these helpers surface by throwing InputError.
  [[nodiscard]] wire::FaultCountsReply query_faults(std::uint64_t session,
                                                    std::uint64_t query_id);
  [[nodiscard]] wire::FaultCurveReply query_fault_curve(
      std::uint64_t session, std::uint64_t query_id, std::uint32_t max_k);
  [[nodiscard]] wire::PartitionAdviceReply query_partition(
      std::uint64_t session, std::uint64_t query_id);

  /// Waits for the next reply of any kind and returns its parsed frame
  /// (pipelined consumers match query ids themselves).  The returned view's
  /// payload aliases `storage`.
  [[nodiscard]] wire::FrameView wait_reply(std::vector<std::byte>& storage);

 private:
  void submit(wire::WireWriter&& writer);
  /// Waits for the reply with `query_id` of frame type `want`.
  [[nodiscard]] std::vector<std::byte> wait_for(wire::FrameType want,
                                                std::uint64_t query_id);

  Mcpd* daemon_;
  std::shared_ptr<ResponseMailbox> mailbox_;
  std::vector<std::vector<std::byte>> stash_;  ///< Out-of-order replies.
};

}  // namespace mcp::service
