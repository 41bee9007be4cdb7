// mcp::sentry — the checked-build analysis layer's allocation sentry.
//
// The engines rest on structural performance claims ("allocation-free
// steady-state hot loops", "no per-emission allocations outside declared
// amortized growth points").  This module turns those claims into
// *enforced invariants*: the global operator new/delete pair is
// instrumented with a thread-local allocation counter, and a scoped
// `AllocGuard` declares a region allocation-free — any allocation attempted
// inside the region fails immediately with an MCP_ASSERT-style fatal report
// (ModelError) naming the region and the site that declared it.
//
// Amortized growth that a region's claim explicitly permits (an interner
// arena doubling, a direct-mapped index resize) is marked in the code with a
// scoped `AllocAllow` at the growth site, so the declaration of "this may
// allocate, and only this" lives next to the code it describes.
//
// Guards nest (the innermost region is reported) and are strictly
// per-thread: a guard on the main thread says nothing about pool workers —
// a parallel region must arm a guard inside each worker task.
// All sentry state is thread_local (sentry.cpp), so there is no shared
// capability for the thread-safety analysis to track; the *coverage*
// invariant — every declared hot kernel still arms its guard and is
// exercised under it by some test — is checked statically by
// tools/verify/mcp_verify.py rule `alloc-guard` against the kernel
// registry in tools/verify/rules.toml.
//
// Cost when unarmed: one thread-local counter update per program-wide
// allocation, nothing per guarded-loop iteration.  MCP_REQUIRE, MCP_ASSERT
// and MCP_ASSERT_MSG (core/error.hpp) build their failure messages under an
// AllocAllow, so a contract failure inside a guard keeps its own message.
// The deep invariant validators compiled under MCP_CHECKED
// (BatchEngine::validate(), StateInterner::validate(), validate_front())
// are gated by the MCP_CHECKED_ONLY macro below and are zero-cost no-ops
// otherwise.
#pragma once

#include <cstdint>
#include <source_location>

namespace mcp {

namespace sentry {

/// Monotonic counters for the calling thread, maintained by the replacement
/// global operator new/delete in sentry.cpp.  `allocations` counts attempts
/// (a guard-refused allocation is still counted).
struct ThreadAllocStats {
  std::uint64_t allocations = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t bytes_allocated = 0;
};

/// Snapshot of the calling thread's counters.
[[nodiscard]] ThreadAllocStats thread_alloc_stats() noexcept;

/// Shorthand for thread_alloc_stats().allocations.
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

/// True iff the instrumented operator new is linked into this binary (it is
/// whenever any sentry symbol is referenced; a binary without it sees every
/// guard pass vacuously).  Performs one small heap allocation.
[[nodiscard]] bool instrumentation_active();

}  // namespace sentry

/// RAII declaration that the enclosed region performs no heap allocation on
/// this thread.  Violations throw ModelError with the region name and the
/// guard's declaration site; the offending allocation is never performed.
class AllocGuard {
 public:
  explicit AllocGuard(
      const char* region,
      std::source_location site = std::source_location::current());
  ~AllocGuard();

  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;

  /// Allocation attempts on this thread since the guard was armed.
  [[nodiscard]] std::uint64_t allocations() const noexcept;

  [[nodiscard]] const char* region() const noexcept { return region_; }
  [[nodiscard]] const std::source_location& site() const noexcept {
    return site_;
  }

 private:
  const char* region_;
  std::source_location site_;
  std::uint64_t start_allocations_;
  AllocGuard* prev_;  ///< enclosing guard on this thread, if any
};

/// Scoped suspension of the innermost AllocGuard: marks a *declared*
/// amortized growth point (arena append, index doubling)
/// inside an otherwise allocation-free region.  Nesting is counted.
class AllocAllow {
 public:
  AllocAllow() noexcept;
  ~AllocAllow();

  AllocAllow(const AllocAllow&) = delete;
  AllocAllow& operator=(const AllocAllow&) = delete;
};

}  // namespace mcp

/// Deep invariant validation, compiled only in checked builds
/// (-DMCP_CHECKED=ON; CI job `checked`).  Wrap validator invocations at
/// strategy/step/layer boundaries in this macro so release builds pay
/// nothing:
///
///   MCP_CHECKED_ONLY(validate());
#ifdef MCP_CHECKED
#define MCP_CHECKED_BUILD 1
#define MCP_CHECKED_ONLY(stmt) \
  do {                         \
    stmt;                      \
  } while (false)
#else
#define MCP_CHECKED_ONLY(stmt) \
  do {                         \
  } while (false)
#endif
