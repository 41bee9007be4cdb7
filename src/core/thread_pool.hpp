// Persistent worker pool for the sweep engine.
//
// Every empirical claim in this repo is validated by sweeping grids of
// (strategy x policy x K x p x tau) cells; the old parallel_for spawned and
// joined fresh threads per call, which dominated small sweeps and made the
// bench numbers noisy.  ThreadPool keeps `num_workers` threads alive for the
// process lifetime and feeds them from one task queue.
//
// Contracts:
//  * enqueue() never blocks on task execution (only on the queue mutex) and
//    is safe to call from inside a running task, so tasks may spawn tasks.
//  * The first exception thrown by any task is captured and rethrown from
//    the next wait_idle(); later exceptions of the same quiet period are
//    dropped (matching the old parallel_for contract).
//  * Destruction is graceful: queued work is drained, then workers join.
//    Exceptions still pending at destruction are discarded (destructors
//    must not throw).
//  * run_indexed() is the blocking data-parallel primitive: the caller
//    participates as a runner, so it is safe to call from inside a pool
//    task (the inline runner guarantees progress even when every worker is
//    busy — no deadlock by construction).  Runners claim guided blocks of
//    indices (about remaining / (2 x runners), at least one) with one CAS
//    and count a finished block with one atomic add, so a sweep of cheap
//    cells pays per block, not per cell; the job's mutex is taken only by
//    a failing cell, the runner that finishes the last block, and the
//    caller's final wait.
//
// Lock discipline: all mutable pool state is guarded by `mutex_` and
// annotated MCP_GUARDED_BY (core/annotations.hpp), so the `analyze` CI
// job's Clang thread-safety pass rejects any unguarded access at compile
// time.  The public entry points are MCP_EXCLUDES(mutex_): callers never
// hold the pool lock (a task calling enqueue() mid-run would otherwise
// self-deadlock).
//
// Determinism note: the pool itself promises nothing about execution order.
// Reproducibility across worker counts is the sweep layer's job (sweep.hpp):
// each cell writes only its own result slot and draws randomness only from a
// per-cell RNG derived from (master_seed, cell_index).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace mcp {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 = hardware_concurrency, minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains all queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queues `task` for execution on some worker.  Safe from inside a task.
  void enqueue(std::function<void()> task) MCP_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and no task is running, then rethrows
  /// the first exception captured since the last wait (if any).  Must not be
  /// called from inside a pool task (it would wait on itself).
  void wait_idle() MCP_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }

  /// Blocking indexed dispatch: runs fn(i) once for each i in [0, count)
  /// using at most `max_workers` concurrent runners (0 = one per pool
  /// worker plus the caller).  Runners claim contiguous blocks of indices
  /// and run each block in increasing order; with one runner that is plain
  /// index order.  The caller thread is always one of the runners, so this
  /// never deadlocks even when called from inside a pool task with every
  /// worker busy.  The first exception thrown by any fn(i) cancels every
  /// cell not yet started, in any runner's block, and is rethrown on the
  /// caller once every claimed block is done.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn,
                   std::size_t max_workers = 0) MCP_EXCLUDES(mutex_);

  /// The process-wide shared pool (lazily constructed, hardware-sized).
  /// This is the one deliberate exception to the "no global mutable state"
  /// rule: worker threads are a process resource, exactly like the heap.
  static ThreadPool& global();

 private:
  void worker_loop() MCP_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::condition_variable work_cv_;  ///< workers sleep here
  std::condition_variable idle_cv_;  ///< wait_idle sleeps here
  std::deque<std::function<void()>> queue_ MCP_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;  ///< written by the ctor only
  std::size_t in_flight_ MCP_GUARDED_BY(mutex_) = 0;  ///< tasks executing
  bool stopping_ MCP_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ MCP_GUARDED_BY(mutex_);
};

}  // namespace mcp
