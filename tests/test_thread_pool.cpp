// ThreadPool contract tests: exception propagation to the caller, zero- and
// single-task edge cases, graceful shutdown with queued work, and absence
// of deadlock when tasks enqueue tasks or nest indexed dispatches.
#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mcp {
namespace {

TEST(ThreadPool, ZeroTasksIsIdle) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.wait_idle());
  int calls = 0;
  pool.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleTaskRuns) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.enqueue([&] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);

  ran.store(0);
  pool.run_indexed(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToWaiter) {
  ThreadPool pool(2);
  pool.enqueue([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed: the pool is reusable afterwards.
  std::atomic<int> ran{0};
  pool.enqueue([&] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, RunIndexedPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(100,
                                [](std::size_t i) {
                                  if (i == 57) throw std::runtime_error("cell");
                                }),
               std::runtime_error);
  // A failed dispatch leaves the pool healthy.
  std::atomic<int> count{0};
  pool.run_indexed(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.enqueue([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // Destructor must complete every queued task before joining.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, TasksCanEnqueueTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  // Each root task fans out children, which fan out grandchildren.
  for (int root = 0; root < 4; ++root) {
    pool.enqueue([&pool, &ran] {
      ran.fetch_add(1);
      for (int child = 0; child < 4; ++child) {
        pool.enqueue([&pool, &ran] {
          ran.fetch_add(1);
          pool.enqueue([&ran] { ran.fetch_add(1); });
        });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 4 + 16 + 16);
}

TEST(ThreadPool, NestedRunIndexedDoesNotDeadlock) {
  // Every worker can be busy in the outer dispatch; the inner dispatches
  // must still finish because the calling runner executes cells inline.
  ThreadPool pool(2);
  std::atomic<int> cells{0};
  pool.run_indexed(8, [&](std::size_t) {
    pool.run_indexed(8, [&](std::size_t) { cells.fetch_add(1); });
  });
  EXPECT_EQ(cells.load(), 64);
}

TEST(ThreadPool, RunIndexedCoversEveryIndexOnceAtAnyWidth) {
  ThreadPool pool(4);
  for (std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> touched(kCount);
    pool.run_indexed(
        kCount, [&](std::size_t i) { touched[i].fetch_add(1); }, width);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(touched[i].load(), 1) << "width=" << width << " i=" << i;
    }
  }
}

TEST(ThreadPool, BlockClaimsRunEveryIndexOnce) {
  // Guided blocks shrink with the remaining count and the runner count, so
  // sweep both: every index runs exactly once, whatever the block sizes.
  ThreadPool pool(7);
  std::vector<std::atomic<int>> touched(300);
  for (std::size_t width = 1; width <= 8; ++width) {
    for (std::size_t count = 0; count <= 300; ++count) {
      for (std::size_t i = 0; i < count; ++i) touched[i].store(0);
      pool.run_indexed(
          count, [&](std::size_t i) { touched[i].fetch_add(1); }, width);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(touched[i].load(), 1)
            << "width=" << width << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ExceptionInABlockCancelsLaterCells) {
  ThreadPool pool(4);
  // One runner claims blocks in index order (150, 75, 37, ... cells of
  // 300), so a throw cancels exactly the cells after it: the rest of its
  // own block and every later block.
  for (const std::size_t thrower : {std::size_t{0}, std::size_t{10},
                                    std::size_t{149}, std::size_t{150},
                                    std::size_t{200}, std::size_t{299}}) {
    std::vector<int> ran(300, 0);
    EXPECT_THROW(pool.run_indexed(
                     300,
                     [&](std::size_t i) {
                       ++ran[i];
                       if (i == thrower) throw std::runtime_error("cell");
                     },
                     1),
                 std::runtime_error);
    for (std::size_t i = 0; i < ran.size(); ++i) {
      ASSERT_EQ(ran[i], i <= thrower ? 1 : 0)
          << "thrower=" << thrower << " i=" << i;
    }
  }
  // At any width the first exception is rethrown, no cell runs twice, and
  // the pool stays usable.
  for (std::size_t width = 2; width <= 5; ++width) {
    std::vector<std::atomic<int>> ran(1000);
    EXPECT_THROW(pool.run_indexed(
                     1000,
                     [&](std::size_t i) {
                       ran[i].fetch_add(1);
                       if (i % 97 == 3) throw std::runtime_error("cell");
                     },
                     width),
                 std::runtime_error);
    for (std::size_t i = 0; i < ran.size(); ++i) {
      ASSERT_LE(ran[i].load(), 1) << "width=" << width << " i=" << i;
    }
    std::atomic<int> count{0};
    pool.run_indexed(50, [&](std::size_t) { count.fetch_add(1); }, width);
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, NestedRunIndexedFromACellCompletes) {
  // Outer cells occupy every runner and each starts its own dispatch over
  // the same pool; the nested calls run inline on their callers, so every
  // (outer, inner) pair runs exactly once at every width.
  ThreadPool pool(3);
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{0}}) {
    constexpr std::size_t kOuter = 24;
    constexpr std::size_t kInner = 37;
    std::vector<std::atomic<int>> pairs(kOuter * kInner);
    pool.run_indexed(
        kOuter,
        [&](std::size_t o) {
          pool.run_indexed(
              kInner,
              [&](std::size_t i) { pairs[o * kInner + i].fetch_add(1); },
              width);
        },
        width);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      ASSERT_EQ(pairs[k].load(), 1) << "width=" << width << " pair=" << k;
    }
  }
}

TEST(ThreadPool, SingleRunnerIsInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;  // no lock needed: one runner (the caller)
  pool.run_indexed(
      8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, GlobalPoolIsSharedAndAlive) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1u);
  std::atomic<int> ran{0};
  a.run_indexed(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace mcp
