// Workload advisory_mixed: a closed loop of producer threads against an
// in-process Mcpd.  Tenants cycle the four wire strategies and every
// session asks for fault counts, an LRU fault curve and partition advice.
//
// Each producer keeps a fixed window of sessions in flight.  A session
// streams its trace as documents of one 256-pair kRequestRun frame per core
// (the first document also opens the session), then submits one document
// with the close and its queries and waits for the replies.  Frames are
// encoded inside the timed region with the WireWriter calls McpdClient
// wraps; replies are taken from the producer's ResponseMailbox.  The daemon
// is replaced after a fixed number of sessions (a "generation"), and the
// end-to-end numbers are medians over generations.  Answers are checked
// after the timed region against direct library calls on the same trace.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/batch_state.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "policies/mattson.hpp"
#include "policies/policy_registry.hpp"
#include "service/mcpd.hpp"
#include "service/wire_format.hpp"
#include "strategies/partition.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using mcp::Count;
using mcp::PageId;
using mcp::RequestSet;
namespace service = mcp::service;
namespace wire = mcp::wire;

struct Shape {
  std::size_t tenants = 64;  ///< Distinct traces; sessions cycle over them.
  std::size_t cores = 4;
  std::size_t cache = 64;    ///< 16-cell share per core.
  std::size_t pages_per_core = 128;
  std::size_t requests_per_core = 2048;
  std::size_t run_pairs = 256;
  std::size_t window = 8;    ///< Sessions in flight per producer.
  /// Sessions each producer runs against one daemon before it is replaced:
  /// mcpd keeps a finished session's trace until the daemon stops, so this
  /// bounds the daemon's memory independently of the run's length.
  std::size_t sessions_per_generation = 512;
  mcp::Time tau = 4;
};

Shape shape_for(const Options& options) {
  Shape shape;
  if (options.size == Size::kTiny) {
    shape.tenants = 8;
    shape.requests_per_core = 512;
    shape.window = 2;
    shape.sessions_per_generation = 8;
  }
  return shape;
}

struct Tenant {
  RequestSet trace;
  wire::SessionParams params;
};

std::vector<Tenant> make_tenants(const Shape& shape, std::uint64_t seed) {
  static constexpr wire::StrategyKind kCycle[] = {
      wire::StrategyKind::kSharedLru, wire::StrategyKind::kStaticEvenLru,
      wire::StrategyKind::kSharedFifo, wire::StrategyKind::kStaticEvenFifo};
  mcp::CoreWorkload core;
  core.pattern = mcp::AccessPattern::kWorkingSet;
  core.length = shape.requests_per_core;
  core.working_set = shape.cache / shape.cores;
  core.num_pages = shape.pages_per_core;
  std::vector<Tenant> tenants(shape.tenants);
  std::uint64_t state = seed;
  for (std::size_t t = 0; t < shape.tenants; ++t) {
    tenants[t].trace = mcp::make_workload(mcp::homogeneous_spec(
        shape.cores, core, /*disjoint=*/true, mcp::splitmix64(state)));
    tenants[t].params = wire::SessionParams{
        static_cast<std::uint32_t>(shape.cores),
        static_cast<std::uint32_t>(shape.cache),
        static_cast<std::uint32_t>(shape.tau),
        kCycle[t % 4]};
  }
  return tenants;
}

// --- answer digests ---------------------------------------------------------

std::uint64_t digest(const wire::FaultCountsReply& r) {
  std::uint64_t h = mix(r.requests_served, r.end_time);
  for (const Count f : r.per_core_faults) h = mix(h, f);
  for (const mcp::Time t : r.completion_times) h = mix(h, t);
  return h;
}

std::uint64_t digest(const std::vector<std::vector<Count>>& curves) {
  std::uint64_t h = curves.size();
  for (const auto& curve : curves) {
    for (const Count f : curve) h = mix(h, f);
  }
  return h;
}

std::uint64_t digest(const std::vector<std::uint32_t>& cells, Count faults) {
  std::uint64_t h = faults;
  for (const std::uint32_t c : cells) h = mix(h, c);
  return h;
}

/// Digests of a session's three answers.
struct Answers {
  std::uint64_t faults = 0;
  std::uint64_t curve = 0;
  std::uint64_t advice = 0;

  friend bool operator==(const Answers&, const Answers&) = default;
};

std::unique_ptr<mcp::CacheStrategy> strategy_for(
    const wire::SessionParams& params) {
  const bool lru = params.strategy == wire::StrategyKind::kSharedLru ||
                   params.strategy == wire::StrategyKind::kStaticEvenLru;
  mcp::PolicyFactory factory = mcp::make_policy_factory(lru ? "lru" : "fifo");
  if (params.strategy == wire::StrategyKind::kSharedLru ||
      params.strategy == wire::StrategyKind::kSharedFifo) {
    return std::make_unique<mcp::SharedStrategy>(std::move(factory));
  }
  return std::make_unique<mcp::StaticPartitionStrategy>(
      mcp::even_partition(params.cache_size, params.num_cores),
      std::move(factory));
}

/// The answers a session must receive, computed directly by the library.
Answers expected_answers(const Tenant& tenant, bool perturb) {
  mcp::SimConfig config;
  config.cache_size = tenant.params.cache_size;
  config.fault_penalty = tenant.params.fault_penalty;
  const auto strategy = strategy_for(tenant.params);
  const mcp::RunStats stats = mcp::simulate(config, tenant.trace, *strategy);
  wire::FaultCountsReply faults;
  faults.requests_served = stats.total_requests();
  faults.end_time = stats.end_time;
  for (mcp::CoreId j = 0; j < stats.num_cores(); ++j) {
    faults.per_core_faults.push_back(stats.core(j).faults);
    faults.completion_times.push_back(stats.core(j).completion_time);
  }
  if (perturb) faults.per_core_faults[0] += 1;
  Answers expected;
  expected.faults = digest(faults);
  auto curves =
      mcp::lru_fault_curve_batch(tenant.trace, tenant.params.cache_size);
  const mcp::PartitionSearchResult best =
      mcp::optimal_partition_from_curves(curves, tenant.params.cache_size);
  if (perturb) curves[0][0] += 1;
  expected.curve = digest(curves);
  std::vector<std::uint32_t> cells(best.partition.begin(),
                                   best.partition.end());
  expected.advice = digest(cells, best.faults + (perturb ? 1 : 0));
  return expected;
}

// --- producer ---------------------------------------------------------------

/// A producer's sessions of one tenant: how many finished, the answers the
/// first one got, and how many failed (error reply, or answers unlike the
/// first's — every session of a tenant replays the same trace).
struct TenantTally {
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  bool have_first = false;
  Answers first;
};

/// What a producer accumulates over every daemon generation of a pass.
struct ProducerOutput {
  std::vector<TenantTally> tallies;  ///< Indexed by tenant.
  std::uint64_t bytes = 0;
  std::uint64_t submits = 0;
  /// Sessions in flight when the producer stopped on an exception or was
  /// abandoned: their replies never came.
  std::uint64_t lost = 0;
  std::string error;  ///< Set if the producer stopped on an exception.
};

/// One client thread's closed loop against one daemon generation.
class Producer {
 public:
  Producer(service::Mcpd& daemon, const std::vector<Tenant>& tenants,
           const Shape& shape, std::size_t index, std::size_t producers,
           Tracer& tracer, ProducerOutput& out)
      : daemon_(daemon),
        tenants_(tenants),
        shape_(shape),
        index_(index),
        producers_(producers),
        mailbox_(std::make_shared<service::ResponseMailbox>()),
        tracer_(tracer),
        out_(out),
        slots_(shape.window) {
    out_.tallies.resize(tenants.size());
  }

  void run(std::uint64_t deadline_ns) {
    try {
      loop(deadline_ns);
    } catch (const std::exception& e) {
      out_.error = e.what();
      lose_in_flight();
    }
  }

  /// Wakes the producer with an empty document, which no reply can be: it
  /// stops and counts its sessions in flight as lost.
  void abandon() { mailbox_->deliver({}); }

  [[nodiscard]] std::uint64_t started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t pairs() const noexcept { return pairs_; }
  [[nodiscard]] std::uint64_t first_submit_ns() const noexcept {
    return first_submit_ns_;
  }
  [[nodiscard]] std::uint64_t last_reply_ns() const noexcept {
    return last_reply_ns_;
  }
  [[nodiscard]] const std::vector<double>& latencies_ms() const noexcept {
    return latencies_ms_;
  }

 private:
  enum class State { kIdle, kStreaming, kAwaiting };

  struct Slot {
    State state = State::kIdle;
    std::uint64_t session = 0;
    std::uint32_t tenant = 0;
    std::size_t piece = 0;  ///< Next run piece to stream.
    std::uint32_t pending_replies = 0;
    std::uint64_t close_ns = 0;
    Answers answers;
    bool error_reply = false;
  };

  void loop(std::uint64_t deadline_ns) {
    const Scope root(tracer_, "producer");
    const std::size_t pieces =
        (shape_.requests_per_core + shape_.run_pairs - 1) / shape_.run_pairs;
    std::size_t next = 0;
    for (;;) {
      const bool accepting =
          started_ < shape_.sessions_per_generation && now_ns() < deadline_ns;
      // Advance one session (round robin): start, stream, or close it.
      bool submitted = false;
      for (std::size_t step = 0; step < slots_.size() && !submitted; ++step) {
        Slot& slot = slots_[next];
        next = (next + 1) % slots_.size();
        if (slot.state == State::kIdle && accepting) start_session(slot);
        if (slot.state == State::kStreaming) {
          if (slot.piece < pieces) {
            stream_piece(slot);
          } else {
            close_session(slot);
          }
          submitted = true;
        }
      }
      // Collect whatever replies are already there without blocking.
      for (;;) {
        std::optional<std::vector<std::byte>> doc;
        {
          const Scope span(tracer_, "service.mailbox.poll");
          doc = mailbox_->try_pop();
        }
        if (!doc) break;
        if (doc->empty()) {
          lose_in_flight();
          return;
        }
        handle_reply(*doc);
      }
      if (submitted) continue;
      bool awaiting = false;
      bool busy = false;
      for (const Slot& slot : slots_) {
        awaiting = awaiting || slot.state == State::kAwaiting;
        busy = busy || slot.state != State::kIdle;
      }
      if (!awaiting) {
        if (!busy && !accepting) break;
        continue;
      }
      std::vector<std::byte> doc;
      {
        const Scope span(tracer_, "service.mailbox.wait");
        doc = mailbox_->wait();
      }
      if (doc.empty()) {
        lose_in_flight();
        return;
      }
      handle_reply(doc);
    }
  }

  void lose_in_flight() {
    for (Slot& slot : slots_) {
      if (slot.state != State::kIdle) ++out_.lost;
      slot.state = State::kIdle;
    }
  }

  void start_session(Slot& slot) {
    const Scope span(tracer_, "producer.bookkeeping");
    slot = Slot{};
    slot.state = State::kStreaming;
    slot.session = (started_++) * producers_ + index_ + 1;
    slot.tenant =
        static_cast<std::uint32_t>((slot.session - 1) % tenants_.size());
  }

  void stream_piece(Slot& slot) {
    const Tenant& tenant = tenants_[slot.tenant];
    std::shared_ptr<const std::vector<std::byte>> doc;
    {
      const Scope span(tracer_, "service.wire.encode", slot.session);
      wire::WireWriter writer;
      if (slot.piece == 0) writer.session_open(slot.session, tenant.params);
      const std::size_t from = slot.piece * shape_.run_pairs;
      for (std::uint32_t core = 0; core < tenant.trace.num_cores(); ++core) {
        const auto pages = tenant.trace.sequence(core).pages();
        if (from >= pages.size()) continue;
        const std::size_t n = std::min(shape_.run_pairs, pages.size() - from);
        writer.request_run(slot.session, core, pages.subspan(from, n));
        pairs_ += n;
      }
      doc = std::make_shared<const std::vector<std::byte>>(
          std::move(writer).take());
    }
    ++slot.piece;
    submit(std::move(doc), slot.session);
  }

  void close_session(Slot& slot) {
    const Tenant& tenant = tenants_[slot.tenant];
    std::shared_ptr<const std::vector<std::byte>> doc;
    {
      const Scope span(tracer_, "service.wire.encode", slot.session);
      wire::WireWriter writer;
      writer.session_close(slot.session);
      writer.query_faults(slot.session, slot.session);
      writer.query_fault_curve(slot.session, slot.session,
                               tenant.params.cache_size);
      writer.query_partition(slot.session, slot.session);
      slot.pending_replies = 3;
      doc = std::make_shared<const std::vector<std::byte>>(
          std::move(writer).take());
    }
    slot.state = State::kAwaiting;
    slot.close_ns = now_ns();
    submit(std::move(doc), slot.session);
  }

  void submit(std::shared_ptr<const std::vector<std::byte>> doc,
              std::uint64_t session) {
    out_.bytes += doc->size();
    ++out_.submits;
    if (first_submit_ns_ == 0) first_submit_ns_ = now_ns();
    const Scope span(tracer_, "service.mcpd.submit", session);
    daemon_.submit_document(std::move(doc), mailbox_);
  }

  void handle_reply(const std::vector<std::byte>& doc) {
    wire::FrameView frame;
    std::uint64_t answer = 0;
    {
      const Scope span(tracer_, "service.wire.decode");
      wire::WireReader reader(doc);
      MCP_REQUIRE(reader.next(frame), "perfbench: empty reply document");
      switch (frame.type) {
        case wire::FrameType::kFaultCounts:
          answer = digest(wire::decode_fault_counts(frame));
          break;
        case wire::FrameType::kFaultCurve:
          answer = digest(wire::decode_fault_curve(frame).curves);
          break;
        case wire::FrameType::kPartitionAdvice: {
          const wire::PartitionAdviceReply advice =
              wire::decode_partition_advice(frame);
          answer = digest(advice.cells_per_core, advice.predicted_faults);
          break;
        }
        case wire::FrameType::kError:
          (void)wire::decode_error(frame);
          break;
        default:
          throw mcp::InputError("perfbench: unexpected reply frame");
      }
    }
    const Scope span(tracer_, "producer.bookkeeping", frame.session);
    Slot* slot = nullptr;
    for (Slot& candidate : slots_) {
      if (candidate.state == State::kAwaiting &&
          candidate.session == frame.session) {
        slot = &candidate;
      }
    }
    MCP_REQUIRE(slot != nullptr, "perfbench: reply for an unknown session");
    switch (frame.type) {
      case wire::FrameType::kFaultCounts: slot->answers.faults = answer; break;
      case wire::FrameType::kFaultCurve: slot->answers.curve = answer; break;
      case wire::FrameType::kPartitionAdvice:
        slot->answers.advice = answer;
        break;
      default: slot->error_reply = true; break;
    }
    if (--slot->pending_replies > 0) return;
    last_reply_ns_ = now_ns();
    latencies_ms_.push_back(seconds_between(slot->close_ns, last_reply_ns_) *
                            1e3);
    TenantTally& tally = out_.tallies[slot->tenant];
    ++tally.sessions;
    if (slot->error_reply) {
      ++tally.failed;
    } else if (!tally.have_first) {
      tally.have_first = true;
      tally.first = slot->answers;
    } else if (!(slot->answers == tally.first)) {
      ++tally.failed;
    }
    slot->state = State::kIdle;
  }

  service::Mcpd& daemon_;
  const std::vector<Tenant>& tenants_;
  const Shape& shape_;
  std::size_t index_;
  std::size_t producers_;
  std::shared_ptr<service::ResponseMailbox> mailbox_;
  Tracer& tracer_;
  ProducerOutput& out_;
  std::vector<Slot> slots_;
  std::uint64_t started_ = 0;
  std::uint64_t pairs_ = 0;
  std::uint64_t first_submit_ns_ = 0;
  std::uint64_t last_reply_ns_ = 0;
  std::vector<double> latencies_ms_;
};

// --- passes -----------------------------------------------------------------

void accumulate(service::ShardStats& into, const service::ShardStats& from) {
  into.frames += from.frames;
  into.pairs += from.pairs;
  into.epochs += from.epochs;
  into.sessions_opened += from.sessions_opened;
  into.sessions_finished += from.sessions_finished;
  into.batched_sessions += from.batched_sessions;
  into.scalar_sessions += from.scalar_sessions;
  into.lane_steps += from.lane_steps;
  into.bad_frames += from.bad_frames;
  into.busy_ns += from.busy_ns;
  into.epoch_latency.merge(from.epoch_latency);
}

/// One daemon lifetime: every producer runs its quota of sessions (or until
/// the run's time is up), then the daemon stops.  Its wall time runs from
/// the first submit to the last reply; daemon start and stop fall outside.
struct Generation {
  double wall_s = 0.0;
  std::uint64_t pairs = 0;
  std::vector<double> latencies_ms;
  bool complete = false;  ///< Every producer ran its full quota.
};

struct Pass {
  std::vector<Generation> generations;
  std::vector<ProducerOutput> outputs;
  std::vector<Tracer> tracers;
  service::ShardStats shards;        ///< Summed over generations.
  service::ShardStats first_shards;  ///< The first generation's.
  std::vector<std::uint32_t> first_tenants;  ///< Its sessions' tenants.
  std::size_t num_shards = 0;
};

/// How long past the run's deadline producers may still wait for replies;
/// then their sessions in flight count as lost.
constexpr std::uint64_t kReplyGraceNs = 10'000'000'000;

/// Runs daemon generations of a fixed session count each until the run's
/// time is up; `between_generations`, if set, is called after every
/// generation.  mcpd keeps a finished session's trace until it stops, so
/// the generations bound its memory independently of the run's length.
Pass run_pass(const Options& options, const Shape& shape,
              const std::vector<Tenant>& tenants, bool trace,
              const service::McpdConfig& config, std::size_t producers,
              std::unique_ptr<service::Mcpd> daemon,
              const std::function<void()>& between_generations) {
  Pass pass;
  pass.num_shards = config.num_shards;
  pass.outputs.resize(producers);
  pass.tracers.assign(producers, Tracer(trace));
  const auto deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  do {
    if (!daemon) daemon = std::make_unique<service::Mcpd>(config);
    std::vector<std::unique_ptr<Producer>> clients;
    for (std::size_t p = 0; p < producers; ++p) {
      clients.push_back(std::make_unique<Producer>(
          *daemon, tenants, shape, p, producers, pass.tracers[p],
          pass.outputs[p]));
    }
    {
      // A lost reply would block its producer in ResponseMailbox::wait for
      // good, so producers still running once the grace period is over
      // are abandoned.
      std::mutex mutex;
      std::condition_variable finished;
      std::size_t running = producers;
      std::vector<std::thread> threads;
      for (auto& client : clients) {
        threads.emplace_back([&, producer = client.get()] {
          producer->run(deadline);
          const std::lock_guard<std::mutex> lock(mutex);
          --running;
          finished.notify_one();
        });
      }
      {
        std::unique_lock<std::mutex> lock(mutex);
        const std::chrono::steady_clock::time_point give_up(
            std::chrono::nanoseconds(deadline + kReplyGraceNs));
        if (!finished.wait_until(lock, give_up,
                                 [&running] { return running == 0; })) {
          for (auto& client : clients) client->abandon();
        }
      }
      for (std::thread& thread : threads) thread.join();
    }
    daemon->stop();
    const service::ShardStats stats = daemon->total_stats();
    daemon.reset();
    accumulate(pass.shards, stats);

    Generation gen;
    gen.complete = true;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    for (std::size_t p = 0; p < producers; ++p) {
      const Producer& client = *clients[p];
      if (client.first_submit_ns() != 0 &&
          (first == 0 || client.first_submit_ns() < first)) {
        first = client.first_submit_ns();
      }
      last = std::max(last, client.last_reply_ns());
      gen.pairs += client.pairs();
      gen.latencies_ms.insert(gen.latencies_ms.end(),
                              client.latencies_ms().begin(),
                              client.latencies_ms().end());
      gen.complete =
          gen.complete && client.started() == shape.sessions_per_generation;
      if (pass.generations.empty()) {
        for (std::uint64_t i = 0; i < client.started(); ++i) {
          pass.first_tenants.push_back(static_cast<std::uint32_t>(
              (i * producers + p) % tenants.size()));
        }
      }
    }
    gen.wall_s = seconds_between(first, last);
    if (pass.generations.empty()) pass.first_shards = stats;
    pass.generations.push_back(std::move(gen));
    if (between_generations) between_generations();
  } while (now_ns() < deadline);
  return pass;
}

/// End-to-end numbers: medians over the complete generations of each
/// generation's rate and latency quantiles, so a burst of interference from
/// outside the benchmark moves one generation, not the result.
void end_to_end(const Pass& pass, Result& result) {
  std::vector<const Generation*> used;
  for (const Generation& gen : pass.generations) {
    if (gen.complete) used.push_back(&gen);
  }
  if (used.empty()) {
    for (const Generation& gen : pass.generations) used.push_back(&gen);
  }
  std::vector<double> rates, p50, p99;
  result.latency_samples = 0;
  for (const Generation* gen : used) {
    if (gen->wall_s <= 0.0 || gen->latencies_ms.empty()) continue;
    rates.push_back(static_cast<double>(gen->pairs) / gen->wall_s);
    p50.push_back(quantile(gen->latencies_ms, 0.5));
    p99.push_back(quantile(gen->latencies_ms, 0.99));
    result.latency_samples += gen->latencies_ms.size();
  }
  result.throughput_per_s = quantile(rates, 0.5);
  result.latency_p50_ms = quantile(p50, 0.5);
  result.latency_p99_ms = quantile(p99, 0.5);
  std::ostringstream note;
  note << pass.generations.size() << " daemon generations, " << used.size()
       << " complete; latency quantiles per generation over "
       << (used.empty() ? 0 : used.front()->latencies_ms.size())
       << " sessions";
  result.notes.push_back(note.str());
}

/// Checks every finished session's answers against the library run
/// directly on its trace; counts the sessions, lost ones included, into
/// attempted/failed.
void check_answers(const Pass& pass, const std::vector<Tenant>& tenants,
                   const Options& options, Result& result) {
  std::vector<Answers> expected(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    expected[i] = expected_answers(tenants[i], options.perturb_oracle);
  }
  for (const ProducerOutput& out : pass.outputs) {
    if (!out.error.empty()) {
      result.notes.push_back("producer stopped: " + out.error);
    }
    if (out.lost > 0) {
      result.notes.push_back(std::to_string(out.lost) +
                             " sessions lost their replies");
    }
    result.attempted += out.lost;
    result.failed += out.lost;
    for (std::size_t t = 0; t < out.tallies.size(); ++t) {
      const TenantTally& tally = out.tallies[t];
      result.attempted += tally.sessions;
      const bool first_ok = tally.have_first && tally.first == expected[t];
      result.failed += first_ok ? tally.failed : tally.sessions;
    }
  }
}

// --- traced run -------------------------------------------------------------

/// Kernel and query-answer replays of the first generation's sessions, for
/// the per-layer split of that generation's shard busy time.  Both are
/// thread-CPU time, so a stolen or preempted CPU does not count.
void replay_layers(const Pass& pass, const std::vector<Tenant>& tenants,
                   Result& result, Tracer& tracer) {
  std::vector<mcp::SimJob> jobs;
  for (const std::uint32_t t : pass.first_tenants) {
    const Tenant& tenant = tenants[t];
    mcp::SimJob job;
    job.config.cache_size = tenant.params.cache_size;
    job.config.fault_penalty = tenant.params.fault_penalty;
    job.config.record_fault_timeline = false;
    job.requests = &tenant.trace;
    const auto kind = tenant.params.strategy;
    const mcp::BatchPolicy policy =
        kind == wire::StrategyKind::kSharedLru ||
                kind == wire::StrategyKind::kStaticEvenLru
            ? mcp::BatchPolicy::kLru
            : mcp::BatchPolicy::kFifo;
    if (kind == wire::StrategyKind::kSharedLru ||
        kind == wire::StrategyKind::kSharedFifo) {
      job.strategy = mcp::BatchStrategySpec::shared(policy);
    } else {
      job.strategy = mcp::BatchStrategySpec::static_partition(
          mcp::even_partition(tenant.params.cache_size,
                              tenant.params.num_cores),
          policy);
    }
    jobs.push_back(std::move(job));
  }
  // One runner: the whole replay runs on this thread.
  mcp::SweepOptions serial;
  serial.max_threads = 1;
  mcp::SweepRunner runner(serial);
  std::uint64_t start = thread_cpu_ns();
  {
    const Scope span(tracer, "core.kernel.replay");
    (void)runner.run_jobs(jobs);
  }
  const double kernel_s = seconds_between(start, thread_cpu_ns());
  double curve_s = 0.0;
  double search_s = 0.0;
  for (const std::uint32_t t : pass.first_tenants) {
    const Tenant& tenant = tenants[t];
    const std::size_t k = tenant.params.cache_size;
    // The daemon runs Mattson once for the curve query and once more for
    // the partition advice.
    start = thread_cpu_ns();
    {
      const Scope span(tracer, "policies.mattson.curve");
      (void)mcp::lru_fault_curve_batch(tenant.trace, k);
    }
    mcp::FaultCurves curves;
    {
      const Scope span(tracer, "policies.mattson.curve");
      curves = mcp::lru_fault_curve_batch(tenant.trace, k);
    }
    curve_s += seconds_between(start, thread_cpu_ns());
    start = thread_cpu_ns();
    {
      const Scope span(tracer, "strategies.partition.search");
      (void)mcp::optimal_partition_from_curves(curves, k);
    }
    search_s += seconds_between(start, thread_cpu_ns());
  }
  const double busy_s = static_cast<double>(pass.first_shards.busy_ns) * 1e-9;
  result.layers["core.kernel.replay_s"] = kernel_s;
  result.layers["policies.mattson.curve_s"] = curve_s;
  result.layers["strategies.partition.search_s"] = search_s;
  result.layers["service.overhead_share"] =
      busy_s > 0.0 ? 1.0 - (kernel_s + curve_s + search_s) / busy_s : 0.0;
  std::ostringstream note;
  note << "replayed the first generation's " << jobs.size()
       << " sessions (shard busy " << busy_s << " s): kernel " << kernel_s
       << " s, Mattson " << curve_s << " s, partition search " << search_s
       << " s";
  result.notes.push_back(note.str());
}

void shard_layers(const Pass& pass, Result& result) {
  const service::ShardStats& s = pass.shards;
  double wall_s = 0.0;
  std::uint64_t pairs = 0;
  for (const Generation& gen : pass.generations) {
    wall_s += gen.wall_s;
    pairs += gen.pairs;
  }
  std::uint64_t bytes = 0;
  std::uint64_t submits = 0;
  for (const ProducerOutput& out : pass.outputs) {
    bytes += out.bytes;
    submits += out.submits;
  }
  const double busy_s = static_cast<double>(s.busy_ns) * 1e-9;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& l = result.layers;
  l["service.wire.bytes_per_pair"] =
      per(static_cast<double>(bytes), static_cast<double>(pairs));
  l["service.mcpd.submit_calls"] = static_cast<double>(submits);
  l["service.shard.busy_s"] = busy_s;
  l["service.shard.busy_share"] =
      per(busy_s, static_cast<double>(pass.num_shards) * wall_s);
  l["service.shard.epochs"] = static_cast<double>(s.epochs);
  l["service.shard.frames_per_epoch"] =
      per(static_cast<double>(s.frames), static_cast<double>(s.epochs));
  l["service.shard.pairs_per_epoch"] =
      per(static_cast<double>(s.pairs), static_cast<double>(s.epochs));
  l["service.shard.epoch_p50_us"] =
      static_cast<double>(s.epoch_latency.p50()) * 1e-3;
  l["service.shard.epoch_p99_us"] =
      static_cast<double>(s.epoch_latency.p99()) * 1e-3;
  l["service.shard.bad_frames"] = static_cast<double>(s.bad_frames);
  l["service.shard.batched_sessions"] =
      static_cast<double>(s.batched_sessions);
  l["service.shard.scalar_sessions"] = static_cast<double>(s.scalar_sessions);
  l["core.cohort.lane_steps"] = static_cast<double>(s.lane_steps);
  l["core.cohort.pairs_per_lane_step"] =
      per(static_cast<double>(s.pairs), static_cast<double>(s.lane_steps));

  const bool ok = busy_s <= static_cast<double>(pass.num_shards) * wall_s;
  result.reconciled = result.reconciled && ok;
  std::ostringstream note;
  note << "reconcile shards: sum busy " << busy_s << " s <= shards x wall "
       << static_cast<double>(pass.num_shards) * wall_s << " s "
       << (ok ? "ok" : "FAILED");
  result.notes.push_back(note.str());
}

/// Producer-side span sums, and the check that they cover each producer's
/// wall time.
void producer_layers(const Pass& pass, Result& result) {
  static constexpr double kTolerance = 0.10;
  auto& l = result.layers;
  for (std::size_t p = 0; p < pass.tracers.size(); ++p) {
    const auto self = pass.tracers[p].self_seconds();
    const auto get = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const double encode = get("service.wire.encode");
    const double submit = get("service.mcpd.submit");
    const double wait = get("service.mailbox.wait");
    const double poll = get("service.mailbox.poll");
    const double decode = get("service.wire.decode");
    const double bookkeeping = get("producer.bookkeeping");
    const auto total = pass.tracers[p].total_seconds();
    const double wall = total.count("producer") ? total.at("producer") : 0.0;
    l["service.wire.encode_s"] += encode;
    l["service.mcpd.submit_s"] += submit;
    l["service.mailbox.wait_s"] += wait;
    l["service.mailbox.poll_s"] += poll;
    l["service.wire.decode_s"] += decode;
    l["producer.bookkeeping_s"] += bookkeeping;
    const double covered = encode + submit + wait + poll + decode + bookkeeping;
    const double gap = wall > 0.0 ? (wall - covered) / wall : 1.0;
    const bool ok = gap >= 0.0 && gap <= kTolerance;
    result.reconciled = result.reconciled && ok;
    std::ostringstream note;
    note << "reconcile producer " << p
         << ": encode+submit+poll+wait+decode+bookkeeping = " << covered
         << " s of " << wall << " s producer wall, unaccounted "
         << gap * 100.0 << "% (tolerance " << kTolerance * 100.0 << "%) "
         << (ok ? "ok" : "FAILED");
    result.notes.push_back(note.str());
  }
}

}  // namespace

Result run_advisory(const Options& options) {
  const Shape shape = shape_for(options);
  const std::size_t producers = parallel_runners();
  service::McpdConfig config;
  config.num_shards = parallel_runners();

  Result result;
  struct Setup {
    std::vector<Tenant> tenants;
    double generate_s = 0.0;
    std::unique_ptr<service::Mcpd> daemon;
  };
  SetupTimer setup([&] {
    const std::uint64_t start = now_ns();
    Setup s;
    s.tenants = make_tenants(shape, options.seed);
    s.generate_s = seconds_between(start, now_ns());
    s.daemon = std::make_unique<service::Mcpd>(config);
    return s;
  });
  Setup inputs = setup.first();
  const std::vector<Tenant>& tenants = inputs.tenants;

  std::ostringstream shape_note;
  shape_note << "closed loop: " << producers << " producers x window "
             << shape.window << " sessions, " << config.num_shards
             << " shards, " << shape.tenants << " tenants x " << shape.cores
             << " cores x " << shape.requests_per_core << " requests, K "
             << shape.cache << ", run frames of " << shape.run_pairs
             << " pairs, " << shape.sessions_per_generation
             << " sessions per producer per daemon generation";
  result.notes.push_back(shape_note.str());

  setup.start_region(options.seconds);
  const Pass pass =
      run_pass(options, shape, tenants, false, config, producers,
               std::move(inputs.daemon), [&setup] { setup.between_units(); });
  setup.finish(result);
  end_to_end(pass, result);
  check_answers(pass, tenants, options, result);
  if (!options.trace) return result;

  // Traced run: a second pass with producer spans on; the untraced pass
  // above is the baseline for the tracing overhead.
  const Pass traced = run_pass(traced_pass(options), shape, tenants, true,
                               config, producers, nullptr, nullptr);
  Result traced_e2e;
  end_to_end(traced, traced_e2e);
  producer_layers(traced, result);
  shard_layers(traced, result);
  Tracer replay_tracer(true);
  replay_layers(traced, tenants, result, replay_tracer);
  std::vector<const Tracer*> all;
  for (const Tracer& t : traced.tracers) all.push_back(&t);
  all.push_back(&replay_tracer);
  finish_traced(options, inputs.generate_s, traced_e2e.throughput_per_s,
                "pairs/s", all, result);
  check_answers(traced, tenants, options, result);
  return result;
}

}  // namespace perfbench
