#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace tcb {
namespace {

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto fut = pool.submit([&] { value = 42; });
  fut.wait();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.parallelism(), 1u);
  bool ran = false;
  pool.submit([&] { ran = true; }).wait();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ParallelForCoversWholeRangeExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10007;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForRespectsGrain) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  // 10 items with grain 10 must run as a single chunk.
  pool.parallel_for(10, 10, [&](std::size_t b, std::size_t e) {
    ++chunks;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(chunks, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, 1, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum, 10);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 100000;
  std::vector<double> data(kN);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> parallel_sum{0};
  pool.parallel_for(kN, 128, [&](std::size_t b, std::size_t e) {
    long long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long long>(data[i]);
    parallel_sum += local;
  });
  EXPECT_EQ(parallel_sum, static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(ThreadPoolTest, ParallelForGrainZeroTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<int> covered{0};
  pool.parallel_for(7, 0, [&](std::size_t b, std::size_t e) {
    EXPECT_LT(b, e);
    covered += static_cast<int>(e - b);
  });
  EXPECT_EQ(covered, 7);
}

TEST(ThreadPoolTest, ParallelForNSmallerThanGrainIsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  pool.parallel_for(5, 100, [&](std::size_t b, std::size_t e) {
    ++chunks;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
  });
  EXPECT_EQ(chunks, 1);
}

TEST(ThreadPoolTest, ParallelForZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  pool.parallel_for(100, 1, [&](std::size_t b, std::size_t e) {
    ++calls;  // non-atomic on purpose: must be single-threaded
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForNeverDispatchesEmptyChunks) {
  // Regression: rounding the step up used to leave trailing chunks with
  // begin > n (n=5, 4 chunks, step=2 dispatched fn(6, 5)).
  ThreadPool pool(3);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
      ASSERT_LT(b, e);
      ASSERT_LE(e, n);
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << n;
  }
}

TEST(ThreadPoolTest, ExceptionFirstOneWinsExactlyOnePropagates) {
  ThreadPool pool(4);
  // Every chunk throws a distinguishable exception; exactly one must win and
  // it must be one of the thrown values, not a mixture or a crash.
  try {
    pool.parallel_for(64, 1, [](std::size_t b, std::size_t) {
      throw std::runtime_error("chunk-" + std::to_string(b));
    });
    FAIL() << "expected a propagated exception";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(std::string(err.what()).rfind("chunk-", 0), 0u) << err.what();
  }
}

TEST(ThreadPoolTest, CallerChunkExceptionPropagates) {
  ThreadPool pool(2);
  // The caller always executes the first chunk, so b == 0 throws on the
  // calling thread; workers must still retire before the rethrow.
  std::atomic<int> worker_chunks{0};
  EXPECT_THROW(pool.parallel_for(1000, 1,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 0)
                                     throw std::invalid_argument("caller boom");
                                   ++worker_chunks;
                                 }),
               std::invalid_argument);
  EXPECT_GT(worker_chunks, 0);
}

TEST(ThreadPoolTest, NestedCallInCallerChunkRunsInline) {
  // A parallel_for nested inside the caller's own chunk must run its whole
  // range on the caller, as nested calls on workers do. The sibling chunks
  // hold every worker until the caller's nested loop has finished, so a
  // nested call that enqueued instead would sit behind them: the workers
  // would time out waiting and the nested chunks would run elsewhere.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> nested_done{false};
  std::atomic<int> worker_timeouts{0};
  std::atomic<int> foreign_nested_chunks{0};
  std::atomic<int> nested_items{0};
  pool.parallel_for(4, 1, [&](std::size_t b, std::size_t e) {
    if (b == 0) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      pool.parallel_for(64, 1, [&](std::size_t nb, std::size_t ne) {
        if (std::this_thread::get_id() != caller) ++foreign_nested_chunks;
        nested_items += static_cast<int>(ne - nb);
      });
      nested_done = true;
      return;
    }
    (void)e;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!nested_done) {
      if (std::chrono::steady_clock::now() > deadline) {
        ++worker_timeouts;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(nested_items, 64);
  EXPECT_EQ(foreign_nested_chunks, 0);
  EXPECT_EQ(worker_timeouts, 0);

  // The region ends with the chunk: a later top-level call fans out again.
  std::atomic<int> off_caller{0};
  pool.parallel_for(4, 1, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) ++off_caller;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  EXPECT_GT(off_caller, 0);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().parallelism(), 1u);
}

TEST(ThreadPoolTest, ManyConcurrentSubmits) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&] { ++count; }));
  for (auto& f : futures) f.wait();
  EXPECT_EQ(count, 200);
}

}  // namespace
}  // namespace tcb
