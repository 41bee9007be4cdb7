// BatchEngine: the step loop — the paper's Section 3 step rule (land due
// fetches, serve ready cores in increasing id, evict then reserve on a
// fault, fast-forward idle time), implemented once over the
// structure-of-arrays state of core/batch_state.hpp.
//
// step_loop() has thirteen instantiations (DESIGN.md §12):
//  * twelve stamp kernels — shared cache and static partition, each under
//    LRU, FIFO, CLOCK, LFU, MARK or LRU-SCAN — take each victim from the
//    faulting region's list and per-slot policy state (LRU and FIFO: the
//    oldest slot not still fetching) with no virtual dispatch and no hash
//    maps, so a sweep of small jobs runs at a multiple of the
//    strategy-object throughput.  (They are named for the stamp array
//    that ordered the slots before the lists.)  They run every mcpd
//    session, every simulate() of a strategy object with a kernel form
//    (CacheStrategy::batch_spec), and every SweepRunner::run_jobs job that
//    run_jobs does not compose: the LRU and FIFO static-partition jobs of
//    a disjoint trace that share per-core runs are composed from those
//    runs, each computed by a one-region paging pass that reproduces the
//    kernel's victims (batch_engine.cpp; BM_BatchSweep against
//    BM_PartitionSweep, E13 `batch_sweep` series);
//  * the hook instantiation takes every decision from a CacheStrategy
//    object and fires the SimObserver callbacks.  Over a materialized
//    RequestSet its cores read their sequences through the same cursors as
//    the stamp kernels; only a RequestStream (adaptive adversaries) is
//    pulled through the virtual RequestStream::next.  Simulator::run and
//    run_stream are thin wrappers over it (run_strategy below), and so is
//    simulate for a strategy with no kernel form (run_routed).
// A stamp kernel is bit-equal to the hook instantiation driving the
// corresponding strategy object — same RunStats field for field, including
// fault timelines, end_time and sim_steps (tests/core/
// test_batch_differential.cpp); both are checked against the independent
// oracle in tests/reference_engine.hpp.
//
// The stamp kernels have two entry points: run() simulates a whole job,
// and the resumable feed — feed(), then advance() until it reports the
// end — serves mcpd sessions whose requests arrive in chunks.  A feed may
// stop short of a core's sequence: the kernel then parks mid-step before
// the first ready core with no buffered request (the model serves a step's
// cores in increasing id, so a later core must never be served ahead of
// it) and resumes bit-identically after the next feed.
//
// advance() is allocation-free: every array is sized by the constructor
// and feed(), fault-timeline buffers are reserved at feed time (at most one
// fault per request), and advance() arms an AllocGuard over the step loop
// (DESIGN.md §10), so a regression that sneaks an allocation into the hot
// path fails loudly (tests/test_sentry.cpp).  The hook instantiation arms
// its guard per step, past SimConfig::alloc_guard_after_step, because some
// strategies allocate while they warm up (tables grown by streamed pages,
// FITF's page vector, parts over budget); policy-backed shared and
// static-partition strategies over a materialized set allocate only at
// attach, so they arm it from step 1.
//
// Static analysis: an engine instance is single-threaded by contract — it
// is confined to the sweep task, mcpd session or Simulator call that owns
// it, so there is no capability to annotate (core/annotations.hpp).  What
// the analysis layer checks here instead: the step-loop AllocGuards stay
// registered and test-exercised (mcp_verify.py rule `alloc-guard`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/batch_state.hpp"
#include "core/events.hpp"
#include "core/stats.hpp"
#include "core/stream.hpp"

namespace mcp {

struct BatchEngineTestAccess;

class BatchEngine {
 public:
  /// Validates the job shape (the SimJob minus its requests) and sizes the
  /// slot, core and region arrays.  The feed starts empty and open.  Throws
  /// ModelError on a malformed shape.
  BatchEngine(const SimConfig& config, std::size_t num_cores,
              const BatchStrategySpec& strategy);

  /// One-shot: simulates the whole job and returns the RunStats
  /// Simulator::run would for the equivalent strategy object.
  [[nodiscard]] static RunStats run(const SimJob& job);

  /// The hook instantiation: serves requests pulled from `stream` with
  /// `strategy`, firing `observers` in order (what Simulator::run_stream
  /// does).  `offline_info`, if non-null, goes to the strategy's attach()
  /// and pre-sizes the page index and fault timelines.  Throws ModelError
  /// when the strategy breaks the model's contract (an eviction of an
  /// absent, reserved, incoming or duplicate page, or no free cell for a
  /// fault), on SimConfig::max_steps, on a 2^20-step deferral livelock, and
  /// when one core pulls more than 2^32 - 1 requests.
  [[nodiscard]] static RunStats run_strategy(
      const SimConfig& config, RequestStream& stream, CacheStrategy& strategy,
      const RequestSet* offline_info,
      std::span<SimObserver* const> observers);

  /// The hook instantiation over a materialized set (what Simulator::run
  /// does): the same run as the stream overload with a FixedStream over
  /// `requests` and offline_info = &requests, but the cores read their
  /// sequences in place through the stamp kernels' cursors instead of one
  /// virtual pull per request.  A sequence longer than 2^32 - 1 requests
  /// throws ModelError before the run starts (checked_core_len).
  [[nodiscard]] static RunStats run_strategy(
      const SimConfig& config, const RequestSet& requests,
      CacheStrategy& strategy, std::span<SimObserver* const> observers);

  /// What simulate() runs: `strategy` over `requests` with no observers.
  /// Once attach() has run, a strategy with a kernel form (CacheStrategy::
  /// batch_spec) runs on that stamp kernel and any other on the hook
  /// instantiation, with the same RunStats either way.  Errors match
  /// run_strategy's, except that an all-reserved abort on the kernel names
  /// the engine instead of the strategy.
  [[nodiscard]] static RunStats run_routed(const SimConfig& config,
                                           const RequestSet& requests,
                                           CacheStrategy& strategy);

  /// Points the cores at `trace`'s sequences (borrowed until the next feed;
  /// sequences may only grow between feeds).  `page_bound` must exceed
  /// every page id in `trace`; `closed` is sticky.  All growth happens
  /// here: the page index and the fault-timeline reserves.  A sequence
  /// longer than 2^32 - 1 requests throws ModelError (checked_core_len).
  void feed(const RequestSet& trace, PageId page_bound, bool closed);

  /// Steps until every core served its last request (returns true) or the
  /// next ready core has no buffered request on an open feed (returns
  /// false; feed more and call again).  Throws ModelError on the paper
  /// model's aborts, exactly where the hook instantiation would with the
  /// strategy object: no evictable page (every slot of the region reserved
  /// by in-flight fetches) or SimConfig::max_steps exceeded.
  bool advance();

  [[nodiscard]] bool ended() const noexcept {
    return state_.active_cores == 0;
  }

  /// Step-loop iterations executed so far (RunStats::sim_steps once ended).
  [[nodiscard]] Count steps() const noexcept { return state_.steps; }

  /// Moves the final RunStats out; requires ended().
  [[nodiscard]] RunStats take_stats();

  /// Deep state invariant check (see BatchState): throws ModelError on the
  /// first violation.  Callable in any build; advance() invokes it on exit
  /// and the hook instantiation at every step boundary under MCP_CHECKED.
  /// Allocates scratch (owns an AllocAllow).
  void validate() const;

 private:
  friend struct BatchEngineTestAccess;
  struct Hooks;  ///< Hook-instantiation state (batch_engine.cpp).

  /// The constructor's checks of a run's shape, before any allocation.
  static void check_shape(const SimConfig& config, std::size_t num_cores,
                          std::size_t regions);

  /// Both run_strategy overloads and run_routed: `stream` is null when the
  /// cores read `requests` in place; `kernel_form` (run_routed only) takes
  /// the attached strategy's stamp kernel when it has one.
  static RunStats run_hooks(const SimConfig& config, RequestStream* stream,
                            const RequestSet* requests,
                            CacheStrategy& strategy,
                            std::span<SimObserver* const> observers,
                            bool kernel_form);

  /// The step loop.  kHooks selects the hook instantiation (decisions from
  /// hooks_->strategy; kPartitioned false, kPolicy kLru and unused);
  /// otherwise it is a stamp kernel specialized on shared vs static
  /// partition and on its eviction policy.  Returns true when every core
  /// ended, false on a stall (stamp kernels on an open feed only).
  template <bool kHooks, bool kPartitioned, BatchPolicy kPolicy>
  bool step_loop();

  /// validate()'s checks of region r's policy state, once its list is
  /// known to hold exactly the region's non-free slots.
  void validate_policy_state(std::size_t r) const;

  BatchState state_;
  RunStats stats_;
  Hooks* hooks_ = nullptr;  ///< Set for the duration of run_strategy().
};

/// Test-only backdoor: lets the sentry test corrupt kernel state in place
/// to prove validate() catches it.
struct BatchEngineTestAccess {
  [[nodiscard]] static BatchState& state(BatchEngine& engine) {
    return engine.state_;
  }
};

}  // namespace mcp
