// Work-sharing thread pool used by the tensor kernels and the slotted
// attention path (paper Fig. 7: "Different slots can run self-attention
// computation in parallel").
//
// The pool exposes two primitives:
//   * submit(fn)              — fire-and-forget task with future.
//   * parallel_for(n, fn)     — static range split across workers; the caller
//                               participates, so a 1-item loop costs nothing.
//
// Design notes (per the C++ Core Guidelines: CP.* rules):
//   * Workers are joined in the destructor (RAII); no detached threads.
//     Tasks already queued at teardown are drained before the workers exit;
//     submit() racing a teardown runs the task on the calling thread.
//   * parallel_for called from inside another parallel_for chunk — on a
//     worker or in the caller's own chunk — or from a submitted task runs
//     its whole range inline on that thread: blocking on sibling queue slots
//     would deadlock the pool, and the caller's re-enqueued chunks would
//     only wait behind workers busy with its siblings. One fan-out per
//     region; whatever a chunk nests is serial on its thread (DESIGN.md §9).
//   * parallel_for's completion latch notifies while holding its mutex, so
//     the caller can never unwind the latch's stack frame while a worker is
//     still signalling it. The suite in tests/parallel/ hammers these paths
//     under TSan.
//   * Lock discipline is compiler-checked: the queue state is
//     TCB_GUARDED_BY(mutex_) and every entry point carries its capability
//     contract, so a clang build with TCB_THREAD_SAFETY=ON proves (not just
//     tests) that no path touches the queue lock-free. See
//     src/parallel/sync.hpp and DESIGN.md §9.
#pragma once

#include <cstddef>
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

  /// Splits [0, n) into contiguous chunks of at least `grain` items and runs
  /// `fn(begin, end)` on each chunk; every dispatched chunk is non-empty.
  /// Blocks until every chunk finishes. The calling thread executes one
  /// chunk itself, and a `grain` of 0 is treated as 1. A call nested inside
  /// any parallel_for chunk (or a submitted task) runs `fn(0, n)` inline.
  /// Exceptions from chunks are rethrown after all chunks retire (first one
  /// wins).
  /// `fn` is TCB_NO_ESCAPE — every chunk retires before this returns, so
  /// by-reference captures of locals are safe by contract.
  void parallel_for(std::size_t n, std::size_t grain,
                    const RangeFnRef& fn TCB_NO_ESCAPE) TCB_EXCLUDES(mutex_);

 private:
  void worker_loop() TCB_EXCLUDES(mutex_);

  /// Immutable after construction; read lock-free by worker_count() et al.
  std::vector<std::thread> threads_;
  Mutex mutex_ TCB_GUARDS(queue_, stop_)
      TCB_ACQUIRED_AFTER(lock_order::pool);
  CondVar cv_;  ///< waited by workers; signalled by submit/parallel_for/dtor
  std::queue<std::function<void()>> queue_ TCB_GUARDED_BY(mutex_);
  bool stop_ TCB_GUARDED_BY(mutex_) = false;
};

/// Convenience wrapper over the global pool with a default grain of 1.
/// `fn` is TCB_NO_ESCAPE, same contract as the member parallel_for.
void parallel_for(std::size_t n, const RangeFnRef& fn TCB_NO_ESCAPE,
                  std::size_t grain = 1);

}  // namespace tcb
