// The parallel-region contract of ThreadPool::parallel_for: a warmed region
// allocates nothing on any thread, concurrent non-pool callers both get
// their whole range, a worker's exception surfaces only after every chunk
// has retired, the caller runs chunk 0, and a nested call runs inline.
//
// Its own binary because it replaces the global operator new with one that
// counts allocations made on any thread while counting is switched on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Both sides out of line: inlined into a call site, gcc pairs the malloc()
// or free() it sees there with the operator it replaced and warns about a
// mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tcb {
namespace {

using std::chrono::milliseconds;

/// Spins until `flag` is set or five seconds pass; returns the flag.
bool await(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(PoolContractTest, WarmedParallelForAllocatesNothing) {
  ThreadPool pool(3);
  std::atomic<std::size_t> covered{0};
  // A body capturing more than two words: a std::function holding it would
  // have to allocate.
  const std::size_t pad[4] = {1, 2, 3, 4};
  const auto body = [&, pad](std::size_t b, std::size_t e) {
    covered.fetch_add((e - b) * pad[0], std::memory_order_relaxed);
  };
  for (int i = 0; i < 8; ++i) pool.parallel_for(64, 1, body);

  covered = 0;
  g_counting = true;
  for (int i = 0; i < 200; ++i) pool.parallel_for(64, 1, body);
  // Again after the workers have parked, so the wake-up path counts too.
  std::this_thread::sleep_for(milliseconds(20));
  pool.parallel_for(64, 1, body);
  g_counting = false;
  EXPECT_EQ(covered.load(), 201u * 64u);
  EXPECT_EQ(g_allocs.load(), 0u) << "a warmed parallel_for allocated";
}

TEST(PoolContractTest, TwoNonPoolCallersBothGetTheirWholeRange) {
  ThreadPool pool(3);
  constexpr int kRounds = 300;
  std::atomic<bool> go{false};
  std::atomic<int> wrong{0};
  const auto caller = [&](std::size_t n) {
    (void)await(go);
    for (int r = 0; r < kRounds; ++r) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      for (auto& h : hits)
        if (h.load() != 1) ++wrong;
    }
  };
  std::thread a(caller, 37);
  std::thread b(caller, 100);
  go = true;
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(PoolContractTest, WorkerExceptionRethrownOnlyAfterEveryChunkRetires) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  std::atomic<int> retired{0};
  try {
    pool.parallel_for(4, 1, [&](std::size_t b, std::size_t) {
      if (b == 0) {
        // Hold the caller in chunk 0 until a worker has claimed and failed
        // a chunk, so the exception certainly comes from a worker.
        EXPECT_TRUE(await(worker_threw)) << "no worker claimed a chunk";
      } else if (std::this_thread::get_id() != caller &&
                 !worker_threw.exchange(true)) {
        throw std::runtime_error("worker chunk " + std::to_string(b));
      } else {
        std::this_thread::sleep_for(milliseconds(30));
      }
      ++retired;
    });
    FAIL() << "the worker's exception was not rethrown";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(std::string(err.what()).rfind("worker chunk ", 0), 0u);
  }
  // Chunk 0 and the two chunks that did not throw all finished first.
  EXPECT_EQ(retired.load(), 3);
}

TEST(PoolContractTest, CallerRunsChunkZero) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  for (int r = 0; r < 200; ++r) {
    std::atomic<bool> zero_on_caller{false};
    pool.parallel_for(8, 1, [&](std::size_t b, std::size_t) {
      if (b == 0) zero_on_caller = std::this_thread::get_id() == caller;
    });
    ASSERT_TRUE(zero_on_caller.load()) << "round " << r;
  }
}

TEST(PoolContractTest, NestedCallRunsInlineAsOneChunk) {
  ThreadPool pool(3);
  std::atomic<int> nested_chunks{0};
  std::atomic<int> foreign{0};
  pool.parallel_for(4, 1, [&](std::size_t, std::size_t) {
    const auto self = std::this_thread::get_id();
    pool.parallel_for(64, 1, [&](std::size_t b, std::size_t e) {
      ++nested_chunks;
      if (std::this_thread::get_id() != self || b != 0 || e != 64) ++foreign;
    });
  });
  EXPECT_EQ(nested_chunks.load(), 4);
  EXPECT_EQ(foreign.load(), 0);
}

}  // namespace
}  // namespace tcb
