#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "util/check.hpp"
#include "util/env.hpp"

namespace tcb {
namespace {

/// True on threads owned by a pool, and on any thread while it runs a
/// parallel_for chunk. Nested parallel_for / submit-spawned loops must not
/// block on queue slots their own siblings occupy — a worker that waits for
/// queued chunks while every other worker does the same deadlocks the pool —
/// and a caller that re-enqueues from inside its own chunk only queues
/// behind workers already busy with that chunk's siblings. So a parallel_for
/// nested anywhere inside another one runs its whole range inline.
thread_local bool tls_in_region = false;

/// Marks the calling thread as inside a parallel region for one chunk,
/// restoring the previous state (nested regions, throwing chunks).
class RegionGuard {
 public:
  RegionGuard() noexcept : prev_(tls_in_region) { tls_in_region = true; }
  ~RegionGuard() { tls_in_region = prev_; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  bool prev_;
};

/// Stack-allocated completion latch for one parallel_for call. The last
/// worker notifies while *holding* the mutex: the caller cannot return from
/// wait() (and destroy this object) until that worker releases it, so no
/// thread ever touches a dead latch. This is the lifetime guarantee the
/// previous promise/future scheme lacked — promise::set_value() may still be
/// executing inside the promise after the waiter has been released, and the
/// waiter's stack frame (promise included) could be gone by then.
class ForLatch {
 public:
  explicit ForLatch(std::size_t chunks) : remaining_(chunks) {}

  /// Records `err` (first one wins) and retires one chunk.
  void complete(std::exception_ptr err) TCB_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (err && !error_) error_ = std::move(err);
    TCB_DCHECK(remaining_ > 0, "ForLatch: more completions than chunks");
    if (--remaining_ == 0) cv_.notify_one();
  }

  void wait() TCB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (remaining_ != 0) cv_.wait(lock);
  }

  /// Merges the caller chunk's exception under the first-one-wins rule and
  /// returns the winner. Called after wait(), but still locks: the guarded
  /// state has no unlocked back door even on the quiescent path.
  [[nodiscard]] std::exception_ptr take_error(std::exception_ptr caller_err)
      TCB_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (caller_err && !error_) error_ = std::move(caller_err);
    return error_;
  }

 private:
  Mutex mutex_ TCB_GUARDS(remaining_, error_)
      TCB_ACQUIRED_AFTER(lock_order::latch);
  CondVar cv_;  ///< signals remaining_ == 0 to the single waiter
  std::size_t remaining_ TCB_GUARDED_BY(mutex_);
  std::exception_ptr error_ TCB_GUARDED_BY(mutex_);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{[] {
    const std::int64_t env = env_int("TCB_THREADS", -1);
    if (env >= 1) return static_cast<std::size_t>(env - 1);
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 1 ? hw - 1 : 0);
  }()};
  return pool;
}

std::future<void> ThreadPool::submit(std::function<void()> fn TCB_ESCAPES) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> fut = task->get_future();
  // No workers — or the pool is tearing down, so the queue will never be
  // drained again: run on the calling thread.
  bool inline_run = threads_.empty();
  if (!inline_run) {
    const MutexLock lock(mutex_);
    if (stop_)
      inline_run = true;
    else
      queue_.emplace([task] { (*task)(); });
  }
  if (inline_run)
    (*task)();
  else
    cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const RangeFnRef& fn TCB_NO_ESCAPE) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t max_chunks = (n + grain - 1) / grain;
  std::size_t chunks = std::min(parallelism(), max_chunks);
  // Single chunk, no workers, or a call nested inside another parallel_for
  // (on a worker or in the caller's own chunk): run the whole range inline
  // on the calling thread. The range is still a region, so whatever it
  // nests runs inline too.
  if (chunks <= 1 || threads_.empty() || tls_in_region) {
    const RegionGuard region;
    fn(0, n);
    return;
  }

  const std::size_t step = (n + chunks - 1) / chunks;
  // Rounding step up can leave trailing chunks empty (n=5, chunks=4 gives
  // step=2 but only 3 real chunks); recompute so no worker ever sees an
  // empty or out-of-range span.
  chunks = (n + step - 1) / step;
  TCB_DCHECK(chunks >= 2, "parallel_for: recomputed chunk count below 2");

  ForLatch latch(chunks - 1);
  {
    const MutexLock lock(mutex_);
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t begin = c * step;
      const std::size_t end = std::min(n, begin + step);
      TCB_DCHECK(begin < end, "parallel_for: empty chunk dispatched");
      queue_.emplace([&latch, &fn, begin, end] {
        std::exception_ptr err;
        try {
          fn(begin, end);
        } catch (...) {
          err = std::current_exception();
        }
        latch.complete(std::move(err));
      });
    }
  }
  cv_.notify_all();

  // The caller executes the first chunk itself; its exception competes with
  // the workers' under the same first-one-wins rule, and the wait below must
  // happen even on a throwing caller chunk — the queued chunks reference this
  // frame's latch and fn.
  std::exception_ptr caller_err;
  try {
    const RegionGuard region;
    fn(0, step);
  } catch (...) {
    caller_err = std::current_exception();
  }
  latch.wait();

  if (auto err = latch.take_error(std::move(caller_err)))
    std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  tls_in_region = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Manual wait loop (not the predicate overload): the condition reads
      // guarded state, and keeping it in this frame lets the thread-safety
      // analysis check it against the held capability.
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(std::size_t n, const RangeFnRef& fn TCB_NO_ESCAPE,
                  std::size_t grain) {
  ThreadPool::global().parallel_for(n, grain, fn);
}

}  // namespace tcb
