// Fundamental identifier and quantity types shared by every mcpaging module.
//
// The model (Lopez-Ortiz & Salinger, TR CS-2011-12, Section 3): a multicore
// processor with p cores shares one cache of K pages.  Time is discrete; a
// hit takes one timestep, a fault additionally delays the remainder of the
// faulting core's sequence by tau timesteps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mcp {

/// Identifier of a memory page.  Pages are opaque; equality is all that the
/// model ever inspects.  Dense small integers keep traces compact.
using PageId = std::uint32_t;

/// Sentinel for "no page" (used by policies that may decline to pick a
/// victim and by cells that are empty).
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

/// Identifier of a core (processor). Cores are numbered 0..p-1; the paper's
/// convention that simultaneous requests are served in a fixed logical order
/// maps to increasing CoreId.
using CoreId = std::uint32_t;

/// Sentinel for "no core".
inline constexpr CoreId kInvalidCore = std::numeric_limits<CoreId>::max();

/// Bounds on external inputs (text traces, mcpd's wire format), checked
/// before anything is sized from them.  Page ids lie below kInputPageBound,
/// so page-indexed arrays stay at most 2^24 entries long and kInvalidPage
/// never enters a run; a trace has at most kMaxInputCores cores.
inline constexpr PageId kInputPageBound = PageId{1} << 24;
inline constexpr CoreId kMaxInputCores = CoreId{1} << 16;

/// A discrete timestep.  The first request of a run is issued at time 0.
using Time = std::uint64_t;

/// Sentinel for "never" / "not yet".
inline constexpr Time kTimeNever = std::numeric_limits<Time>::max();

/// Counters (faults, hits, requests).
using Count = std::uint64_t;

/// How a request to a page that is currently being fetched on behalf of
/// *another* core is treated.  The paper analyses disjoint sequences, where
/// the situation cannot arise; for non-disjoint inputs the behaviour must be
/// pinned down (see DESIGN.md section 2).
enum class SharedFetchMode {
  /// The request counts as a fault for the requesting core and delays it by
  /// the full tau, but it joins the in-flight fetch (no extra cell).  This is
  /// the default: it preserves the paper's "a miss delays the remaining
  /// requests by tau" rule verbatim.
  kCountsAsFault,
  /// The request blocks until the in-flight fetch completes and is then
  /// scored as a hit (delay <= tau, no extra fault).  Models a cache with
  /// MSHR-style fetch merging.
  kJoinsFetch,
};

}  // namespace mcp
