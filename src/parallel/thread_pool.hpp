// Work-sharing thread pool used by the tensor kernels, the encoder's
// row-split regions and the sliced decode step (paper Fig. 7: "Different
// slots can run self-attention computation in parallel").
//
// The pool exposes two primitives:
//   * submit(fn)              — fire-and-forget task with future, queued.
//   * parallel_for(n, fn)     — a parallel region: [0, n) split into at most
//                               parallelism() contiguous chunks; the caller
//                               runs chunk 0 and then claims chunks beside
//                               the workers, so a 1-chunk loop costs nothing.
//
// Design notes (per the C++ Core Guidelines: CP.* rules):
//   * Workers are joined in the destructor (RAII); no detached threads.
//     Tasks already queued at teardown are drained before the workers exit;
//     submit() racing a teardown runs the task on the calling thread.
//   * A region allocates nothing and takes no lock on its fast path: the
//     caller publishes one job descriptor under an epoch counter, and the
//     caller and the workers claim chunk indices from an atomic counter.
//     Idle workers poll for the next epoch for a bounded time, then park on
//     the condition variable; the caller's completion wait polls, then
//     blocks on the pending-chunk counter (DESIGN.md §9).
//   * parallel_for called from inside another parallel_for chunk — on a
//     worker or in the caller's own chunk — or from a submitted task runs
//     its whole range inline on that thread: the workers are the region's
//     own, and a nested fan-out could only wait behind its siblings. One
//     fan-out per region; whatever a chunk nests is serial on its thread.
//     A second non-pool thread that calls parallel_for while a region is in
//     flight runs its range inline too.
//   * Lock discipline is compiler-checked: the queue state is
//     TCB_GUARDED_BY(mutex_), the region counters are TCB_LOCK_FREE atomics,
//     and every entry point carries its capability contract. See
//     src/parallel/sync.hpp and DESIGN.md §9. The suite in tests/parallel/
//     hammers these paths under TSan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/sync.hpp"
#include "util/lifetime.hpp"

namespace tcb {

/// Non-owning reference to a `void(std::size_t begin, std::size_t end)`
/// callable: two words, never allocates. parallel_for takes its body this
/// way because the body never outlives the call (TCB_NO_ESCAPE), while
/// converting a lambda that captures more than two words to std::function
/// heap-allocates — on every nested, inline call from a pool thread too.
class RangeFnRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RangeFnRef> &&
                std::is_invocable_v<F&, std::size_t, std::size_t>>>
  RangeFnRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, std::size_t begin, std::size_t end) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const {
    call_(obj_, begin, end);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t, std::size_t);
};

class ThreadPool {
 public:
  /// `workers` = number of extra threads; 0 means run everything inline.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool. Size = TCB_THREADS env var if set, else
  /// hardware_concurrency(). Construction is thread-safe (magic static).
  static ThreadPool& global();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }
  /// Workers + the calling thread; the natural divisor for static splits.
  [[nodiscard]] std::size_t parallelism() const noexcept {
    return threads_.size() + 1;
  }

  /// Enqueue one task. The callable is TCB_ESCAPES: it is queued and runs
  /// later on a worker thread, so anything it captures by reference must be
  /// kept alive until the returned future is waited on (TaskGroup is the
  /// structured way; tcb-lint's no-ref-capture-escape rule enforces it).
  std::future<void> submit(std::function<void()> fn TCB_ESCAPES)
      TCB_EXCLUDES(mutex_);

  /// Splits [0, n) into contiguous chunks of at least `grain` items, at
  /// most parallelism() of them, and runs `fn(begin, end)` on each chunk;
  /// every dispatched chunk is non-empty. Blocks until every chunk
  /// finishes. The calling thread runs chunk 0 itself and then claims
  /// further chunks alongside the workers; a `grain` of 0 is treated as 1.
  /// A call nested inside any parallel_for chunk (or a submitted task), or
  /// made while another thread's region is in flight, runs `fn(0, n)`
  /// inline. Exceptions from chunks are rethrown after all chunks retire
  /// (first one wins). Allocates nothing.
  /// `fn` is TCB_NO_ESCAPE — every chunk retires before this returns, so
  /// by-reference captures of locals are safe by contract.
  void parallel_for(std::size_t n, std::size_t grain,
                    const RangeFnRef& fn TCB_NO_ESCAPE)
      TCB_EXCLUDES(mutex_, error_mutex_);

 private:
  /// One region's work, written by its caller before the epoch is
  /// published and read by every thread that joins the region.
  struct Job {
    const RangeFnRef* fn = nullptr;
    std::size_t n = 0;
    std::size_t step = 0;
    std::size_t chunks = 0;
  };

  void worker_loop() TCB_EXCLUDES(mutex_, error_mutex_);
  /// Joins the open region if its epoch is not `seen`, runs chunks until
  /// none are left, and leaves; false when there was nothing to join.
  bool join_region(std::uint32_t& seen) TCB_EXCLUDES(error_mutex_);
  /// Polls for a region other than `seen` for at most the spin bound.
  [[nodiscard]] bool spin_for_region(std::uint32_t seen) const;
  [[nodiscard]] bool region_pending(std::uint32_t seen) const;
  /// Claims chunk indices of the current job until they run out.
  void run_claimed_chunks() TCB_EXCLUDES(error_mutex_);
  void run_chunk(std::size_t c) TCB_EXCLUDES(error_mutex_);
  /// Blocks until every chunk claimed off the counter has retired.
  void wait_pending() const;
  void record_error(std::exception_ptr err) TCB_EXCLUDES(error_mutex_);
  [[nodiscard]] std::exception_ptr take_error() TCB_EXCLUDES(error_mutex_);

  /// Immutable after construction; read lock-free by worker_count() et al.
  std::vector<std::thread> threads_;
  Mutex mutex_ TCB_GUARDS(queue_, stop_)
      TCB_ACQUIRED_AFTER(lock_order::pool);
  CondVar cv_;  ///< parked workers; signalled by submit/parallel_for/dtor
  std::queue<std::function<void()>> queue_ TCB_GUARDED_BY(mutex_);
  bool stop_ TCB_GUARDED_BY(mutex_) = false;

  // Region state. `job_` is written only by the thread that holds `busy_`,
  // while no worker has joined (state_'s joined count is 0), and read only
  // by that thread and by workers that have joined.
  Job job_;
  /// Epoch (high 32 bits), open flag (bit 31), joined workers (low bits).
  std::atomic<std::uint64_t> state_ TCB_LOCK_FREE{0};
  std::atomic<bool> busy_ TCB_LOCK_FREE{false};        ///< a caller owns job_
  std::atomic<std::size_t> next_ TCB_LOCK_FREE{0};     ///< next chunk to claim
  std::atomic<std::uint32_t> pending_ TCB_LOCK_FREE{0};  ///< chunks 1.. unretired
  std::atomic<std::uint32_t> parked_ TCB_LOCK_FREE{0};   ///< workers in cv_ wait
  Mutex error_mutex_ TCB_GUARDS(error_) TCB_ACQUIRED_AFTER(lock_order::latch);
  std::exception_ptr error_ TCB_GUARDED_BY(error_mutex_);  ///< first throw
};

/// Convenience wrapper over the global pool with a default grain of 1.
/// `fn` is TCB_NO_ESCAPE, same contract as the member parallel_for.
void parallel_for(std::size_t n, const RangeFnRef& fn TCB_NO_ESCAPE,
                  std::size_t grain = 1);

}  // namespace tcb
