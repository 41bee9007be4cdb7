// BatchEngine: the batch kernel — simulates one SimJob over the
// structure-of-arrays state of core/batch_state.hpp.
//
// Semantics are bit-equal to running the job through mcp::Simulator with
// the corresponding strategy object — same RunStats field for field,
// including fault timelines, end_time and sim_steps.  The win is layout:
// no virtual dispatch, no hash maps, no list nodes; every decision is a few
// loads from contiguous arrays, so a sweep of small jobs runs at a multiple
// of the strategy-object engine's throughput (BM_BatchSweep against
// BM_PartitionSweep, E13 `batch_sweep` series).
//
// Two entry points share one step loop: run() simulates a whole job, and
// the resumable feed — feed(), then advance() until it reports the end —
// serves mcpd sessions whose requests arrive in chunks.  A feed may stop
// short of a core's sequence: the kernel then parks mid-step before the
// first ready core with no buffered request (the model serves a step's
// cores in increasing id, so a later core must never be served ahead of
// it) and resumes bit-identically after the next feed.
//
// advance() is allocation-free: every array is sized by the constructor
// and feed(), fault-timeline buffers are reserved at feed time (at most one
// fault per request), and advance() arms an AllocGuard over the step loop
// (DESIGN.md §10), so a regression that sneaks an allocation into the hot
// path fails loudly (tests/test_sentry.cpp).
//
// Static analysis: an engine instance is single-threaded by contract — it
// is confined to the sweep task or mcpd session that owns it, so there is
// no capability to annotate (core/annotations.hpp).  What the analysis
// layer checks here instead: the step-loop AllocGuard stays registered and
// test-exercised (mcp_verify.py rule `alloc-guard`).
#pragma once

#include <cstddef>

#include "core/batch_state.hpp"
#include "core/stats.hpp"

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
  /// Simulator::run would.
  [[nodiscard]] static RunStats run(const SimJob& job);

  /// Points the cores at `trace`'s sequences (borrowed until the next feed;
  /// sequences may only grow between feeds).  `page_bound` must exceed
  /// every page id in `trace`; `closed` is sticky.  All growth happens
  /// here: the page index and the fault-timeline reserves.
  void feed(const RequestSet& trace, PageId page_bound, bool closed);

  /// Steps until every core served its last request (returns true) or the
  /// next ready core has no buffered request on an open feed (returns
  /// false; feed more and call again).  Throws ModelError on the paper
  /// model's aborts, exactly where Simulator::run would: no evictable page
  /// (every slot of the region reserved by in-flight fetches) or
  /// SimConfig::max_steps exceeded.
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
  /// under MCP_CHECKED.  Allocates scratch (owns an AllocAllow).
  void validate() const;

 private:
  friend struct BatchEngineTestAccess;

  /// The step loop, specialized on (shared vs static partition, LRU vs
  /// FIFO).  Returns true when every core ended, false on a stall.
  template <bool kPartitioned, bool kLruTouch>
  bool step_loop();

  BatchState state_;
  RunStats stats_;
};

/// Test-only backdoor, mirroring CacheStateTestAccess: lets the sentry test
/// corrupt kernel state in place to prove validate() catches it.
struct BatchEngineTestAccess {
  [[nodiscard]] static BatchState& state(BatchEngine& engine) {
    return engine.state_;
  }
};

}  // namespace mcp
