#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "core/error.hpp"

namespace mcp {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  MCP_REQUIRE(static_cast<bool>(task), "ThreadPool::enqueue: empty task");
  {
    LockGuard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  // Explicit wait loop, not the predicate overload: the analysis treats
  // mutex_ as held across the wait, and the guarded reads stay inside this
  // annotated function (see core/annotations.hpp, conventions).
  while (!queue_.empty() || in_flight_ != 0) idle_cv_.wait(lock.native());
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(lock.native());
      // Drain-then-exit: a worker only leaves once the queue is empty, so
      // tasks enqueued by still-running tasks are always served.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    try {
      task();
    } catch (...) {
      LockGuard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      LockGuard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t max_workers) {
  if (count == 0) return;

  std::size_t limit = max_workers == 0 ? num_workers() + 1 : max_workers;
  // The caller is one runner; at most num_workers() helpers are useful.
  const std::size_t helpers =
      std::min({count, limit, num_workers() + 1}) - 1;

  // Shared between the caller and the helper tasks.  Held by shared_ptr
  // because a queued helper may only get scheduled after this call returned:
  // it then finds every index claimed and exits without touching `fn`,
  // which is why the caller's reference may be borrowed.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::size_t runners = 1;
    std::atomic<std::size_t> next{0};      ///< first unclaimed index
    std::atomic<std::size_t> finished{0};  ///< cells run or skipped
    std::atomic<bool> failed{false};
    Mutex mutex;
    std::condition_variable done_cv;
    bool done MCP_GUARDED_BY(mutex) = false;  ///< finished == count
    /// First failure.
    std::exception_ptr error MCP_GUARDED_BY(mutex);
  };
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->count = count;
  job->runners = helpers + 1;

  const auto runner = [job] {
    for (;;) {
      // Guided claim: about remaining / (2 x runners) indices, at least one,
      // so early blocks amortize the claim and late ones balance the tail.
      std::size_t begin = job->next.load(std::memory_order_relaxed);
      std::size_t end = 0;
      do {
        if (begin >= job->count) return;
        end = begin + std::max<std::size_t>(
                          1, (job->count - begin) / (2 * job->runners));
      } while (!job->next.compare_exchange_weak(begin, end,
                                                std::memory_order_relaxed));
      for (std::size_t i = begin; i < end; ++i) {
        if (job->failed.load(std::memory_order_relaxed)) break;
        try {
          (*job->fn)(i);
        } catch (...) {
          LockGuard lock(job->mutex);
          if (!job->error) job->error = std::current_exception();
          job->failed.store(true, std::memory_order_relaxed);
        }
      }
      // One completion add per block, skipped cells included.  Every add is
      // a read-modify-write, so the last one acquires every earlier block's
      // writes and hands them to the caller through the mutex.
      const std::size_t cells = end - begin;
      if (job->finished.fetch_add(cells, std::memory_order_acq_rel) + cells ==
          job->count) {
        {
          LockGuard lock(job->mutex);
          job->done = true;
        }
        job->done_cv.notify_all();
      }
    }
  };

  for (std::size_t h = 0; h < helpers; ++h) enqueue(runner);
  runner();

  UniqueLock lock(job->mutex);
  while (!job->done) job->done_cv.wait(lock.native());
  if (job->error) {
    std::exception_ptr error = std::exchange(job->error, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mcp
