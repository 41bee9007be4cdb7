#include "service/mcpd.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/batch_engine.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "policies/mattson.hpp"
#include "strategies/partition.hpp"
#include "strategies/partition_search.hpp"

namespace mcp::service {

namespace {

[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[nodiscard]] std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The kernel strategy a session's wire StrategyKind names.  Static
/// partitions need at least one cell per core.
[[nodiscard]] BatchStrategySpec strategy_spec(
    const wire::SessionParams& params) {
  const bool lru = params.strategy == wire::StrategyKind::kSharedLru ||
                   params.strategy == wire::StrategyKind::kStaticEvenLru;
  const BatchPolicy policy = lru ? BatchPolicy::kLru : BatchPolicy::kFifo;
  switch (params.strategy) {
    case wire::StrategyKind::kSharedLru:
    case wire::StrategyKind::kSharedFifo:
      return BatchStrategySpec::shared(policy);
    case wire::StrategyKind::kStaticEvenLru:
    case wire::StrategyKind::kStaticEvenFifo:
      if (params.cache_size < params.num_cores) {
        throw InputError(
            "mcpd: static partition session needs cache_size >= num_cores");
      }
      return BatchStrategySpec::static_partition(
          even_partition(params.cache_size, params.num_cores), policy);
  }
  throw InputError("mcpd: unknown strategy kind");
}

/// Every session simulates with no step limit and no fault timeline.
[[nodiscard]] SimConfig session_config(const wire::SessionParams& params) {
  SimConfig config;
  config.cache_size = params.cache_size;
  config.fault_penalty = params.fault_penalty;
  config.record_fault_timeline = false;
  return config;
}

}  // namespace

// --- ResponseMailbox --------------------------------------------------------

ResponseMailbox::~ResponseMailbox() {
  // Drain so the queue's leak assert holds even when a client abandons
  // replies (e.g. a pipelined loadgen that only samples).
  while (ResponseMsg* msg = queue_.pop()) delete msg;
}

void ResponseMailbox::deliver(std::vector<std::byte> doc) {
  auto msg = std::make_unique<ResponseMsg>();
  msg->doc = std::move(doc);
  queue_.push(msg.release());
  delivered_.fetch_add(1, std::memory_order_release);
  delivered_.notify_one();
}

std::optional<std::vector<std::byte>> ResponseMailbox::try_pop() {
  ResponseMsg* raw = queue_.pop();
  if (raw == nullptr) return std::nullopt;
  std::unique_ptr<ResponseMsg> msg(raw);
  ++taken_;
  return std::move(msg->doc);
}

std::vector<std::byte> ResponseMailbox::wait() {
  for (;;) {
    if (std::optional<std::vector<std::byte>> doc = try_pop()) {
      return *std::move(doc);
    }
    const std::uint64_t seen = delivered_.load(std::memory_order_acquire);
    // seen > taken_: a delivery is queued but its list link is mid-flight
    // (the MPSC transient) — spin, the producer is two instructions away.
    if (seen > taken_) continue;
    delivered_.wait(seen, std::memory_order_acquire);
  }
}

// --- Session ----------------------------------------------------------------

/// One tenant session, owned by exactly one shard.  Its batch kernel
/// (core/batch_engine.hpp), created at open and released at finish, walks
/// the accumulated trace and parks mid-step past the buffered end until the
/// client closes, so per-session results are independent of chunk arrival
/// timing and bit-identical to a direct Simulator::run of the full trace.
class Session {
 public:
  /// Throws InputError on params no kernel can serve (static partition with
  /// K < p).  `shard_stats` is the owning shard's, which counts the
  /// session's answer time and fold.
  Session(std::uint64_t id, const wire::SessionParams& params,
          ShardStats& shard_stats)
      : id_(id),
        params_(params),
        trace_(params.num_cores),
        kernel_(std::in_place, session_config(params), params.num_cores,
                strategy_spec(params)),
        shard_stats_(&shard_stats) {}

  /// Appends a chunk's pairs to the trace (validating core ids).  Returns
  /// the number of pairs ingested.
  std::size_t append_chunk(const wire::ChunkView& chunk) {
    if (closed_) throw InputError("mcpd: request chunk after session close");
    if (error_) return chunk.size();  // failed: the outcome is settled
    // Encoders emit single-core runs (WireWriter's per-core chunk shape),
    // so pairs are ingested in core-run tiles: one bounds check, one
    // sequence lookup and one bulk append per tile instead of a push_back
    // per pair.  This loop is on every request's path.
    const std::size_t n = chunk.size();
    std::array<PageId, 256> tile;
    std::size_t i = 0;
    while (i < n) {
      // Optimistic scan: accumulate the core mismatch and the page maximum
      // branchlessly over the whole tile — for the single-core tiles every
      // encoder produces, the loop has no data-dependent exits and the
      // compiler can unroll or vectorize it.  A genuinely mixed tile (legal
      // wire, just not what WireWriter emits) falls back to a re-scan for
      // the leading run's length.
      const std::size_t lim = std::min(tile.size(), n - i);
      const std::uint32_t run_core = chunk.pair(i).core;
      std::uint32_t core_diff = 0;
      PageId max_page = 0;
      for (std::size_t k = 0; k < lim; ++k) {
        const wire::WirePair pair = chunk.pair(i + k);
        core_diff |= pair.core ^ run_core;
        max_page = std::max(max_page, pair.page);
        tile[k] = pair.page;
      }
      std::size_t len = lim;
      if (core_diff != 0) {
        len = 1;
        while (len < lim && chunk.pair(i + len).core == run_core) ++len;
        max_page = 0;
        for (std::size_t k = 0; k < len; ++k) {
          max_page = std::max(max_page, tile[k]);
        }
      }
      if (run_core >= params_.num_cores) {
        throw InputError("mcpd: request pair core " +
                         std::to_string(run_core) + " out of range");
      }
      admit_pages(max_page);
      trace_.sequence(run_core).append({tile.data(), len});
      i += len;
    }
    return n;
  }

  /// kRequestRun ingest: the run's page words are already a little-endian
  /// PageId array, so the hot path is a max-scan plus one bulk append —
  /// half the wire bytes of a chunk and no per-pair core decode.  This is
  /// what makes the daemon's ingest cost a small constant next to the
  /// kernel's stepping (docs/MCPD.md "capacity").
  std::size_t append_run(const wire::RunView& run) {
    if (closed_) throw InputError("mcpd: request run after session close");
    if (error_) return run.size();  // failed: the outcome is settled
    if (run.core() >= params_.num_cores) {
      throw InputError("mcpd: request run core " +
                       std::to_string(run.core()) + " out of range");
    }
    const std::size_t n = run.size();
    if (n == 0) return 0;
    RequestSequence& seq = trace_.sequence(run.core());
    if constexpr (std::endian::native == std::endian::little) {
      // The run payload already is a PageId array (4-aligned LE words):
      // fold its page maximum, the one unavoidable cold pass over the wire
      // bytes, then append straight from the client's buffer.
      const std::span<const PageId> pages(
          reinterpret_cast<const PageId*>(run.page_bytes()), n);
      PageId max_page = 0;
      for (const PageId page : pages) max_page = std::max(max_page, page);
      admit_pages(max_page);
      seq.append(pages);
    } else {
      std::array<PageId, 1024> tile;
      for (std::size_t i = 0; i < n;) {
        const std::size_t len = std::min(tile.size(), n - i);
        PageId max_page = 0;
        for (std::size_t k = 0; k < len; ++k) {
          tile[k] = run.page(i + k);
          max_page = std::max(max_page, tile[k]);
        }
        admit_pages(max_page);
        seq.append({tile.data(), len});
        i += len;
      }
    }
    return n;
  }

  void close() { closed_ = true; }

  /// Parks (or, once finished, immediately answers) a query.  Replies go to
  /// the submitting frame's mailbox; an infeasible query or a park-limit
  /// overflow gets a kError reply instead of stranding a blocking client.
  void enqueue_query(wire::FrameType type, const wire::QueryView& query,
                     std::weak_ptr<ResponseMailbox> reply_to,
                     std::size_t park_limit) {
    if (const char* why = query_rejected(type, query)) {
      answer_error(query.query_id, why, reply_to);
      return;
    }
    if (finished_) {
      reply(type, query, reply_to);
      return;
    }
    if (parked_.size() >= park_limit) {
      answer_error(query.query_id,
                   "mcpd: too many queries parked on an open session",
                   reply_to);
      return;
    }
    parked_.push_back({type, query, std::move(reply_to)});
  }

  /// Feeds the kernel the grown trace and steps it as far as the buffered
  /// requests allow, adding the steps run to `lane_steps`.  Returns true
  /// when the session just finished: its simulation ended, or aborted — a
  /// shared cache with K < p can find every cell reserved by in-flight
  /// fetches — which fails the session, so its queries get the abort
  /// message as a kError reply instead of waiting forever.
  bool step(std::uint64_t& lane_steps) {
    if (finished_ || !dirty_) return false;
    dirty_ = false;
    const Count before = kernel_->steps();
    try {
      kernel_->feed(trace_, page_bound_, closed_);
      const bool ended = kernel_->advance();
      lane_steps += kernel_->steps() - before;
      if (!ended) return false;
      stats_ = kernel_->take_stats();
    } catch (const std::exception& e) {
      lane_steps += kernel_->steps() - before;
      error_ = e.what();
      trace_ = RequestSet();  // no query reads a failed session's trace
    }
    finish();
    return true;
  }

  void mark_dirty() { dirty_ = true; }
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }

 private:
  struct ParkedQuery {
    wire::FrameType type;
    wire::QueryView query;
    std::weak_ptr<ResponseMailbox> reply_to;
  };

  /// Rejects requests whose largest page id, folded by the caller as it
  /// copies them, is out of range; else raises page_bound_, kept current
  /// so a lane refresh need not rescan the trace.
  void admit_pages(PageId max_page) {
    if (max_page >= wire::kMaxWirePageId) {
      throw InputError("mcpd: request page id " + std::to_string(max_page) +
                       " at or above kMaxWirePageId");
    }
    page_bound_ = std::max(page_bound_, max_page + 1);
  }

  /// Marks the session finished (stats_ final or error_ set), releases the
  /// kernel and answers every parked query.
  void finish() {
    finished_ = true;
    kernel_.reset();
    const std::vector<ParkedQuery> parked = std::exchange(parked_, {});
    for (const ParkedQuery& query : parked) {
      try {
        reply(query.type, query.query, query.reply_to);
      } catch (const std::exception&) {
        // reply() turns its own failures into kError replies; landing here
        // means even that failed (e.g. allocation).  Drop this reply and
        // keep answering the rest — one bad query must not strand the
        // others.
      }
    }
  }

  /// Why a query can never be answered on this session, or nullptr if it
  /// can.  Checked at enqueue time so the error reply is immediate — a
  /// parked query must not wait for the session to finish only to fail.
  [[nodiscard]] const char* query_rejected(
      wire::FrameType type, const wire::QueryView& query) const {
    if (type == wire::FrameType::kQueryFaultCurve &&
        query.max_k > kMaxCurveK) {
      return "mcpd: fault curve max_k above the service limit";
    }
    if (type == wire::FrameType::kQueryPartition &&
        params_.cache_size < params_.num_cores) {
      return "mcpd: partition advice needs cache_size >= num_cores";
    }
    return nullptr;
  }

  /// Answers a query on a finished session: the abort message if it
  /// failed, else the query's answer.
  void reply(wire::FrameType type, const wire::QueryView& query,
             const std::weak_ptr<ResponseMailbox>& reply_to) {
    if (error_) {
      answer_error(query.query_id, error_->c_str(), reply_to);
    } else {
      answer(type, query, reply_to);
    }
  }

  void answer_error(std::uint64_t query_id, const char* message,
                    const std::weak_ptr<ResponseMailbox>& reply_to) {
    const std::shared_ptr<ResponseMailbox> mailbox = reply_to.lock();
    if (!mailbox) return;  // client gone; the reply has no reader
    wire::WireWriter writer;
    wire::ErrorReply reply;
    reply.query_id = query_id;
    reply.message = message;
    writer.error_reply(id_, reply);
    mailbox->deliver(std::move(writer).take());
  }

  void answer(wire::FrameType type, const wire::QueryView& query,
              const std::weak_ptr<ResponseMailbox>& reply_to) {
    const std::shared_ptr<ResponseMailbox> mailbox = reply_to.lock();
    if (!mailbox) return;  // client gone; the reply has no reader
    const std::uint64_t cpu0 = thread_cpu_ns();
    wire::WireWriter writer;
    try {
      build_answer(writer, type, query);
    } catch (const std::exception& e) {
      writer = wire::WireWriter();
      wire::ErrorReply reply;
      reply.query_id = query.query_id;
      reply.message = e.what();
      writer.error_reply(id_, reply);
    }
    shard_stats_->answer_ns += thread_cpu_ns() - cpu0;
    mailbox->deliver(std::move(writer).take());
  }

  /// Per-core LRU fault curves at 0..max_k, each a suffix sum of the
  /// core's histogram (folding the session first if it has not been).
  [[nodiscard]] FaultCurves lru_curves(std::size_t max_k) {
    fold();
    FaultCurves curves;
    curves.reserve(histograms_.size());
    for (const std::vector<Count>& hist : histograms_) {
      curves.push_back(lru_fault_curve_from_histogram(hist, max_k));
    }
    return curves;
  }

  /// On a finished session's first LRU answer, replaces the trace by each
  /// core's stack-distance histogram, from which every curve and partition
  /// answer is a suffix sum.  The histograms are built in a local and
  /// committed before the trace is released, so a fold that throws (the
  /// query's kError) leaves the session answerable.
  void fold() {
    if (!histograms_.empty()) return;
    std::vector<std::vector<Count>> histograms;
    histograms.reserve(trace_.num_cores());
    for (CoreId j = 0; j < trace_.num_cores(); ++j) {
      histograms.push_back(stack_distance_histogram(trace_.sequence(j)));
    }
    histograms_ = std::move(histograms);
    trace_ = RequestSet();
    ++shard_stats_->folded_sessions;
  }

  void build_answer(wire::WireWriter& writer, wire::FrameType type,
                    const wire::QueryView& query) {
    switch (type) {
      case wire::FrameType::kQueryFaults: {
        wire::FaultCountsReply reply;
        reply.query_id = query.query_id;
        reply.finished = true;
        reply.requests_served = stats_.total_requests();
        reply.end_time = stats_.end_time;
        reply.per_core_faults.resize(params_.num_cores);
        reply.completion_times.resize(params_.num_cores);
        for (CoreId j = 0; j < params_.num_cores; ++j) {
          reply.per_core_faults[j] = stats_.core(j).faults;
          reply.completion_times[j] = stats_.core(j).completion_time;
        }
        writer.fault_counts(id_, reply);
        break;
      }
      case wire::FrameType::kQueryFaultCurve: {
        wire::FaultCurveReply reply;
        reply.query_id = query.query_id;
        reply.max_k = query.max_k;
        reply.curves = lru_curves(query.max_k);
        writer.fault_curve(id_, reply);
        break;
      }
      case wire::FrameType::kQueryPartition: {
        // query_rejected() screens infeasible partitions at enqueue time;
        // this is unreachable for accepted queries.
        const FaultCurves curves = lru_curves(params_.cache_size);
        const PartitionSearchResult best =
            optimal_partition_from_curves(curves, params_.cache_size);
        wire::PartitionAdviceReply reply;
        reply.query_id = query.query_id;
        reply.predicted_faults = best.faults;
        reply.cells_per_core.reserve(best.partition.size());
        for (std::size_t cells : best.partition) {
          reply.cells_per_core.push_back(static_cast<std::uint32_t>(cells));
        }
        writer.partition_advice(id_, reply);
        break;
      }
      default:
        throw InputError("mcpd: not a query frame");
    }
  }

  std::uint64_t id_;
  wire::SessionParams params_;
  RequestSet trace_;  ///< Grows as chunks arrive; released by fold().
  /// Per core: stack_distance_histogram of its trace.  Empty until fold()
  /// (sessions have p >= 1).
  std::vector<std::vector<Count>> histograms_;
  PageId page_bound_ = 0;            ///< 1 + max page id seen in trace_.
  std::optional<BatchEngine> kernel_;  ///< Released at finish.
  RunStats stats_;  ///< Valid once finished_ without error_.
  std::optional<std::string> error_;  ///< The abort that failed the session.
  std::vector<ParkedQuery> parked_;
  ShardStats* shard_stats_;  ///< The owning shard's counters; outlive us.
  bool closed_ = false;
  bool dirty_ = false;
  bool finished_ = false;
};

// --- Shard ------------------------------------------------------------------

/// One shard: a dedicated worker thread, its ingress queue, and the
/// sessions hashed to it.  All session state is thread-confined to the
/// worker; the queue and the pending_ counter are the only shared parts.
class Shard {
 public:
  explicit Shard(const McpdConfig& config) : config_(config) {}

  ~Shard() { stop_and_join(); }

  void start() {
    worker_ = std::thread([this] { run(); });
  }

  /// Takes ownership of `msg`.  Any thread.
  void enqueue(IngressMsg* msg) {
    ingress_.push(msg);
    pending_.fetch_add(1, std::memory_order_release);
    pending_.notify_one();
  }

  void stop_and_join() {
    if (worker_.joinable()) {
      stop_.store(true, std::memory_order_release);
      pending_.fetch_add(1, std::memory_order_release);  // phantom wake token
      pending_.notify_one();
      worker_.join();
    }
    // A submit that raced stop() may have enqueued frames after the
    // worker's final drain; free them so nothing leaks and the queue's
    // non-empty destructor assert holds.
    while (IngressMsg* raw = ingress_.pop()) delete raw;
  }

  /// Race-free only after stop_and_join().
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

 private:
  void run() {
    for (;;) {
      const std::uint64_t seen = pending_.load(std::memory_order_acquire);
      if (process_epoch()) continue;
      if (stop_.load(std::memory_order_acquire)) break;
      if (pending_.load(std::memory_order_acquire) != seen) continue;
      pending_.wait(seen, std::memory_order_acquire);
    }
  }

  /// One epoch: drain every queued frame, step every touched session,
  /// publish responses.  Returns false when the queue was empty.
  bool process_epoch() {
    std::uint64_t wall0 = 0;
    std::uint64_t cpu0 = 0;
    std::uint64_t frames = 0;
    dirty_.clear();
    while (IngressMsg* raw = ingress_.pop()) {
      std::unique_ptr<IngressMsg> msg(raw);
      if (frames == 0) {
        wall0 = wall_ns();
        cpu0 = thread_cpu_ns();
      }
      ++frames;
      try {
        apply_frame(*msg);
      } catch (const std::exception&) {
        // A malformed or out-of-protocol frame must not take the daemon
        // down; it is counted and dropped (docs/MCPD.md "error handling").
        ++stats_.bad_frames;
      }
    }
    if (frames == 0) return false;
    // Sessions never read each other's state, so the stepping order does
    // not affect any result.
    for (Session* session : dirty_) {
      try {
        if (session->step(stats_.lane_steps)) ++stats_.sessions_finished;
      } catch (const std::exception&) {
        // step() turns a simulation abort into a failed session; landing
        // here means even that failed (e.g. allocation).
        ++stats_.bad_frames;
      }
    }
    stats_.frames += frames;
    ++stats_.epochs;
    stats_.busy_ns += thread_cpu_ns() - cpu0;
    stats_.epoch_latency.record(wall_ns() - wall0);
    return true;
  }

  void apply_frame(const IngressMsg& msg) {
    const wire::FrameView frame = wire::parse_frame(
        std::span<const std::byte>(*msg.doc).subspan(msg.offset, msg.length),
        msg.offset);
    switch (frame.type) {
      case wire::FrameType::kSessionOpen: {
        const wire::SessionParams params = wire::decode_session_open(frame);
        if (sessions_.contains(frame.session)) {
          throw InputError("mcpd: duplicate session open");
        }
        // Construct before inserting: a throwing Session constructor (e.g.
        // an infeasible strategy/cache combination) must not leave a null
        // map entry behind for later frames to dereference.
        auto session = std::make_unique<Session>(frame.session, params, stats_);
        sessions_.emplace(frame.session, std::move(session));
        ++stats_.sessions_opened;
        ++stats_.batched_sessions;
        break;
      }
      case wire::FrameType::kRequestChunk: {
        Session& session = find_session(frame.session);
        stats_.pairs += session.append_chunk(wire::ChunkView(frame));
        mark_dirty(session);
        break;
      }
      case wire::FrameType::kRequestRun: {
        Session& session = find_session(frame.session);
        stats_.pairs += session.append_run(wire::RunView(frame));
        mark_dirty(session);
        break;
      }
      case wire::FrameType::kSessionClose: {
        Session& session = find_session(frame.session);
        session.close();
        mark_dirty(session);
        break;
      }
      case wire::FrameType::kQueryFaults:
      case wire::FrameType::kQueryFaultCurve:
      case wire::FrameType::kQueryPartition: {
        Session& session = find_session(frame.session);
        session.enqueue_query(frame.type, wire::decode_query(frame),
                              msg.reply_to, config_.max_parked_queries);
        break;
      }
      default:
        throw InputError("mcpd: response frame on the ingress path");
    }
  }

  Session& find_session(std::uint64_t id) {
    // Frames arrive in per-tenant bursts (a tenant document is one run of
    // open/chunks/close/query frames), so a one-entry MRU cache skips the
    // hash lookup for nearly every chunk.  Session objects are uniquely
    // owned by the map and never erased while the shard runs, so the
    // cached pointer cannot dangle; id 0 is reserved, so the empty cache
    // never matches.
    if (id == mru_session_id_) return *mru_session_;
    const auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second == nullptr) {
      throw InputError("mcpd: frame for unknown session " +
                       std::to_string(id));
    }
    mru_session_id_ = id;
    mru_session_ = it->second.get();
    return *mru_session_;
  }

  void mark_dirty(Session& session) {
    if (!session.dirty()) {
      session.mark_dirty();
      dirty_.push_back(&session);
    }
  }

  McpdConfig config_;
  MpscQueue<IngressMsg> ingress_;
  alignas(64) std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t mru_session_id_ = 0;     ///< 0 = empty (id 0 is reserved).
  Session* mru_session_ = nullptr;
  std::vector<Session*> dirty_;          ///< Sessions touched this epoch.
  ShardStats stats_;
  std::thread worker_;
};

// --- Mcpd -------------------------------------------------------------------

Mcpd::Mcpd(McpdConfig config) : config_(config) {
  MCP_REQUIRE(config_.num_shards >= 1, "mcpd needs at least one shard");
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
  for (auto& shard : shards_) shard->start();
}

Mcpd::~Mcpd() { stop(); }

std::size_t Mcpd::shard_of(std::uint64_t session) const noexcept {
  std::uint64_t state = session;
  return splitmix64(state) % shards_.size();
}

void Mcpd::submit_document(std::shared_ptr<const std::vector<std::byte>> doc,
                           std::shared_ptr<ResponseMailbox> reply_to) {
  MCP_REQUIRE(!stopped_.load(std::memory_order_acquire),
              "mcpd: submit after stop");
  MCP_REQUIRE(doc != nullptr, "mcpd: null document");
  // Pass 1 validates the whole document's framing, so a malformed tail
  // never leaves a prefix half-enqueued.
  struct Slot {
    std::size_t offset;
    std::size_t length;
    std::uint64_t session;
  };
  std::vector<Slot> slots;
  {
    wire::WireReader reader(*doc);
    wire::FrameView frame;
    std::size_t start = reader.offset();
    while (reader.next(frame)) {
      slots.push_back({start, reader.offset() - start, frame.session});
      start = reader.offset();
    }
  }
  for (const Slot& slot : slots) {
    auto msg = std::make_unique<IngressMsg>();
    msg->doc = doc;
    msg->offset = slot.offset;
    msg->length = slot.length;
    msg->reply_to = reply_to;
    shards_[shard_of(slot.session)]->enqueue(msg.release());
  }
}

void Mcpd::stop() {
  // Mark stopped *before* joining so a submit racing shutdown trips the
  // precondition check instead of enqueueing into a joined shard.
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) shard->stop_and_join();
}

std::size_t Mcpd::num_shards() const noexcept { return shards_.size(); }

const ShardStats& Mcpd::shard_stats(std::size_t shard) const {
  MCP_REQUIRE(stopped_.load(std::memory_order_acquire),
              "mcpd: shard_stats before stop");
  return shards_.at(shard)->stats();
}

ShardStats Mcpd::total_stats() const {
  MCP_REQUIRE(stopped_.load(std::memory_order_acquire),
              "mcpd: total_stats before stop");
  ShardStats total;
  for (const auto& shard : shards_) {
    const ShardStats& s = shard->stats();
    total.frames += s.frames;
    total.pairs += s.pairs;
    total.epochs += s.epochs;
    total.sessions_opened += s.sessions_opened;
    total.sessions_finished += s.sessions_finished;
    total.batched_sessions += s.batched_sessions;
    total.scalar_sessions += s.scalar_sessions;
    total.lane_steps += s.lane_steps;
    total.bad_frames += s.bad_frames;
    total.busy_ns += s.busy_ns;
    total.answer_ns += s.answer_ns;
    total.folded_sessions += s.folded_sessions;
    total.epoch_latency.merge(s.epoch_latency);
  }
  return total;
}

// --- McpdClient -------------------------------------------------------------

namespace {

struct ReplyKey {
  wire::FrameType type;
  std::uint64_t query_id;
};

/// All reply payloads lead with their u64 query id.
[[nodiscard]] ReplyKey peek_reply(const std::vector<std::byte>& doc) {
  wire::WireReader reader(doc);
  wire::FrameView frame;
  MCP_REQUIRE(reader.next(frame), "mcpd client: empty reply document");
  MCP_REQUIRE(frame.payload.size() >= 8, "mcpd client: reply payload too short");
  return {frame.type, wire::load_u64(frame.payload.data())};
}

[[nodiscard]] wire::FrameView reply_frame(const std::vector<std::byte>& doc) {
  wire::WireReader reader(doc);
  wire::FrameView frame;
  MCP_REQUIRE(reader.next(frame), "mcpd client: empty reply document");
  return frame;
}

[[noreturn]] void throw_error_reply(const std::vector<std::byte>& doc) {
  const wire::ErrorReply error = wire::decode_error(reply_frame(doc));
  throw InputError("mcpd: query " + std::to_string(error.query_id) +
                   " failed: " + error.message);
}

}  // namespace

void McpdClient::submit(wire::WireWriter&& writer) {
  daemon_->submit_document(std::make_shared<const std::vector<std::byte>>(
                               std::move(writer).take()),
                           mailbox_);
}

void McpdClient::open(std::uint64_t session,
                      const wire::SessionParams& params) {
  wire::WireWriter writer;
  writer.session_open(session, params);
  submit(std::move(writer));
}

void McpdClient::send_pairs(std::uint64_t session,
                            std::span<const wire::WirePair> pairs) {
  wire::WireWriter writer;
  writer.request_chunk(session, pairs);
  submit(std::move(writer));
}

void McpdClient::send_core_pages(std::uint64_t session, std::uint32_t core,
                                 std::span<const PageId> pages) {
  wire::WireWriter writer;
  writer.request_chunk(session, core, pages);
  submit(std::move(writer));
}

void McpdClient::send_core_run(std::uint64_t session, std::uint32_t core,
                               std::span<const PageId> pages) {
  wire::WireWriter writer;
  writer.request_run(session, core, pages);
  submit(std::move(writer));
}

void McpdClient::close(std::uint64_t session) {
  wire::WireWriter writer;
  writer.session_close(session);
  submit(std::move(writer));
}

void McpdClient::post_query_faults(std::uint64_t session,
                                   std::uint64_t query_id) {
  wire::WireWriter writer;
  writer.query_faults(session, query_id);
  submit(std::move(writer));
}

void McpdClient::post_query_fault_curve(std::uint64_t session,
                                        std::uint64_t query_id,
                                        std::uint32_t max_k) {
  wire::WireWriter writer;
  writer.query_fault_curve(session, query_id, max_k);
  submit(std::move(writer));
}

void McpdClient::post_query_partition(std::uint64_t session,
                                      std::uint64_t query_id) {
  wire::WireWriter writer;
  writer.query_partition(session, query_id);
  submit(std::move(writer));
}

std::vector<std::byte> McpdClient::wait_for(wire::FrameType want,
                                            std::uint64_t query_id) {
  for (std::size_t i = 0; i < stash_.size(); ++i) {
    const ReplyKey key = peek_reply(stash_[i]);
    if (key.query_id != query_id ||
        (key.type != want && key.type != wire::FrameType::kError)) {
      continue;
    }
    std::vector<std::byte> doc = std::move(stash_[i]);
    stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
    if (key.type == wire::FrameType::kError) throw_error_reply(doc);
    return doc;
  }
  for (;;) {
    std::vector<std::byte> doc = mailbox_->wait();
    const ReplyKey key = peek_reply(doc);
    if (key.query_id == query_id) {
      if (key.type == want) return doc;
      if (key.type == wire::FrameType::kError) throw_error_reply(doc);
    }
    stash_.push_back(std::move(doc));
  }
}

wire::FrameView McpdClient::wait_reply(std::vector<std::byte>& storage) {
  if (!stash_.empty()) {
    storage = std::move(stash_.back());
    stash_.pop_back();
  } else {
    storage = mailbox_->wait();
  }
  return reply_frame(storage);
}

wire::FaultCountsReply McpdClient::query_faults(std::uint64_t session,
                                                std::uint64_t query_id) {
  post_query_faults(session, query_id);
  const std::vector<std::byte> doc =
      wait_for(wire::FrameType::kFaultCounts, query_id);
  return wire::decode_fault_counts(reply_frame(doc));
}

wire::FaultCurveReply McpdClient::query_fault_curve(std::uint64_t session,
                                                    std::uint64_t query_id,
                                                    std::uint32_t max_k) {
  post_query_fault_curve(session, query_id, max_k);
  const std::vector<std::byte> doc =
      wait_for(wire::FrameType::kFaultCurve, query_id);
  return wire::decode_fault_curve(reply_frame(doc));
}

wire::PartitionAdviceReply McpdClient::query_partition(std::uint64_t session,
                                                       std::uint64_t query_id) {
  post_query_partition(session, query_id);
  const std::vector<std::byte> doc =
      wait_for(wire::FrameType::kPartitionAdvice, query_id);
  return wire::decode_partition_advice(reply_frame(doc));
}

}  // namespace mcp::service
