#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/check.hpp"
#include "util/env.hpp"

namespace tcb {
namespace {

/// True on threads owned by a pool, and on any thread while it runs a
/// parallel_for chunk. A parallel_for nested anywhere inside another one
/// runs its whole range inline: the region's workers are already busy with
/// its siblings, so a nested fan-out could only wait behind them.
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

/// How long an idle worker polls for the next region before it parks, and
/// how long a caller polls for its last chunks before it blocks. Regions
/// come back to back during an encode or a decode (a few to a few hundred
/// µs apart), so a poll that outlasts those gaps saves the futex wake-up
/// and the mutex on the next fork; bounding it keeps an idle pool off the
/// CPU, which matters when the pool has more threads than the host has
/// cores. BM_ForkJoin read 10 µs and 50 µs the same; BM_Splice was 5-15%
/// slower at 10 µs (DESIGN.md §9.6).
constexpr std::chrono::microseconds kSpin{50};
/// Poll iterations between clock reads.
constexpr unsigned kPollsPerClockRead = 4;

constexpr std::uint64_t kOpen = std::uint64_t{1} << 31;
constexpr std::uint64_t kJoinedMask = kOpen - 1;
constexpr unsigned kEpochShift = 32;

constexpr std::uint32_t epoch_of(std::uint64_t state) {
  return static_cast<std::uint32_t>(state >> kEpochShift);
}

/// Polls `ready` until it returns true or the spin bound passes; returns
/// the last answer. Each poll yields the core rather than spinning on a
/// pause instruction: the scheduler often places a woken worker on the
/// core of the thread that woke it, and a worker spinning there kept that
/// caller off its own core for the whole bound (an empty region after an
/// idle gap measured ~90 µs with pause-spinning, ~6 µs yielding).
template <typename Ready>
bool poll_bounded(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    std::this_thread::yield();
    if (i % kPollsPerClockRead == 0 &&
        std::chrono::steady_clock::now() >= deadline)
      return ready();
  }
}

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
  // Single chunk, no workers, a call nested inside another parallel_for (on
  // a worker or in the caller's own chunk), or another thread's region in
  // flight: run the whole range inline on the calling thread. The range is
  // still a region, so whatever it nests runs inline too.
  bool expected = false;
  if (chunks <= 1 || threads_.empty() || tls_in_region ||
      !busy_.compare_exchange_strong(expected, true, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    const RegionGuard region;
    fn(0, n);
    return;
  }

  const std::size_t step = (n + chunks - 1) / chunks;
  // Rounding step up can leave trailing chunks empty (n=5, chunks=4 gives
  // step=2 but only 3 real chunks); recompute so no thread ever sees an
  // empty or out-of-range span.
  chunks = (n + step - 1) / step;
  TCB_DCHECK(chunks >= 2, "parallel_for: recomputed chunk count below 2");

  // Workers that joined the previous region may still be on their way out;
  // job_ is theirs to read until they have left.
  std::uint64_t state = state_.load(std::memory_order_acquire);
  while ((state & kJoinedMask) != 0) {
    std::this_thread::yield();
    state = state_.load(std::memory_order_acquire);
  }
  job_ = Job{&fn, n, step, chunks};
  next_.store(1, std::memory_order_relaxed);
  pending_.store(static_cast<std::uint32_t>(chunks - 1),
                 std::memory_order_relaxed);
  // Publish. seq_cst pairs with the parked_ increment in worker_loop: either
  // this load sees the parked worker, or that worker sees the new epoch
  // before it waits.
  state_.store((std::uint64_t{epoch_of(state) + 1} << kEpochShift) | kOpen,
               std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    // A worker between its parked_ increment and its wait holds mutex_, so
    // taking it once orders this publish before that worker's last check;
    // notifying after the release spares the woken workers a mutex the
    // caller still holds.
    { const MutexLock lock(mutex_); }
    cv_.notify_all();
  }

  // The caller runs chunk 0, then claims chunks beside the workers; its
  // exception competes with theirs under the same first-one-wins rule, and
  // the wait below happens even on a throwing chunk — claimed chunks
  // reference this frame's fn.
  run_chunk(0);
  run_claimed_chunks();
  wait_pending();
  // Close the region: a worker arriving late no longer joins. Workers still
  // inside find no chunk left; the next caller waits them out.
  state_.fetch_and(~kOpen, std::memory_order_acq_rel);
  std::exception_ptr err = take_error();
  busy_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

void ThreadPool::run_chunk(std::size_t c) {
  const std::size_t begin = c * job_.step;
  const std::size_t end = std::min(job_.n, begin + job_.step);
  TCB_DCHECK(begin < end, "parallel_for: empty chunk dispatched");
  try {
    const RegionGuard region;
    (*job_.fn)(begin, end);
  } catch (...) {
    record_error(std::current_exception());
  }
}

void ThreadPool::run_claimed_chunks() {
  for (;;) {
    const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= job_.chunks) return;
    run_chunk(c);
    // The last retirement wakes the caller if it stopped polling. pending_
    // is the pool's, not the caller's frame, so the notify is safe even
    // after the caller has returned.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      pending_.notify_one();
  }
}

void ThreadPool::wait_pending() const {
  const auto done = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (poll_bounded(done)) return;
  for (;;) {
    const std::uint32_t left = pending_.load(std::memory_order_acquire);
    if (left == 0) return;
    pending_.wait(left, std::memory_order_acquire);
  }
}

void ThreadPool::record_error(std::exception_ptr err) {
  const MutexLock lock(error_mutex_);
  if (!error_) error_ = std::move(err);
}

std::exception_ptr ThreadPool::take_error() {
  const MutexLock lock(error_mutex_);
  return std::exchange(error_, nullptr);
}

bool ThreadPool::region_pending(std::uint32_t seen) const {
  const std::uint64_t state = state_.load(std::memory_order_seq_cst);
  return (state & kOpen) != 0 && epoch_of(state) != seen;
}

bool ThreadPool::spin_for_region(std::uint32_t seen) const {
  return poll_bounded([&] { return region_pending(seen); });
}

bool ThreadPool::join_region(std::uint32_t& seen) {
  std::uint64_t state = state_.load(std::memory_order_acquire);
  for (;;) {
    if (epoch_of(state) == seen) return false;
    if ((state & kOpen) == 0) {
      seen = epoch_of(state);  // closed before this worker got there
      return false;
    }
    // Joining pins job_: its caller (or the next one) does not rewrite it
    // while the joined count is non-zero.
    if (state_.compare_exchange_weak(state, state + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      break;
  }
  seen = epoch_of(state);
  run_claimed_chunks();
  state_.fetch_sub(1, std::memory_order_release);
  return true;
}

void ThreadPool::worker_loop() {
  tls_in_region = true;
  // Epoch 0 is the constructed state, never a published region; a worker
  // that starts after the first publish must still see that region as new.
  std::uint32_t seen = 0;
  bool polled = false;  // polled for a region since the last work found
  for (;;) {
    if (join_region(seen)) {
      polled = false;
      continue;
    }
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      if (polled) {
        // Nothing turned up while polling: park. Manual wait loop (not the
        // predicate overload): the condition reads guarded state, and
        // keeping it in this frame lets the thread-safety analysis check it
        // against the held capability.
        parked_.fetch_add(1, std::memory_order_seq_cst);
        while (!stop_ && queue_.empty() && !region_pending(seen))
          cv_.wait(lock);
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
      } else if (stop_) {
        return;
      }
    }
    if (task) {
      task();
      polled = false;
    } else if (!polled) {
      (void)spin_for_region(seen);
      polled = true;
    } else {
      polled = false;  // woken for a region: join it on the next pass
    }
  }
}

void parallel_for(std::size_t n, const RangeFnRef& fn TCB_NO_ESCAPE,
                  std::size_t grain) {
  ThreadPool::global().parallel_for(n, grain, fn);
}

}  // namespace tcb
