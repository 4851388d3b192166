// Capability-annotated synchronization layer (DESIGN.md §9).
//
// Every mutex and condition variable in the engine goes through the wrappers
// below, for two reasons:
//
//   * Clang Thread Safety Analysis. `tcb::Mutex` is a capability and
//     `tcb::MutexLock` a scoped capability, so shared state declared
//     `TCB_GUARDED_BY(mutex_)` is *compile-time checked*: touching it without
//     the lock, calling a `TCB_REQUIRES` function lock-free, or re-entering a
//     `TCB_EXCLUDES` entry point while holding the lock is a build error
//     under `-Werror=thread-safety-analysis` (the `clang-tsa` preset / CI
//     job). TSan stays as the dynamic complement; the static analysis covers
//     every path on every build, not just the interleavings a run happens to
//     hit.
//   * One choke point. tcb-lint's `use-tcb-sync` rule bans raw `std::mutex`,
//     `std::condition_variable`, `std::lock_guard` and `std::unique_lock`
//     outside this header, so lock discipline cannot quietly fork per module.
//
// The macros compile to nothing on non-clang compilers (gcc builds see plain
// `std::mutex` behavior), and the wrappers add no state: the static_asserts
// at the bottom pin size and alignment to the std counterparts, the same
// zero-overhead contract `strong_index.hpp` makes for the index types.
//
// Annotation cheat sheet (the full attribute reference is in the clang docs):
//
//   TCB_GUARDED_BY(m)     member may only be read/written while holding m
//   TCB_PT_GUARDED_BY(m)  pointer member: the *pointee* is guarded by m
//   TCB_REQUIRES(m)       function must be called with m held
//   TCB_EXCLUDES(m)       function must be called with m NOT held (it will
//                         acquire m itself; re-entry would deadlock)
//   TCB_ACQUIRE(m) / TCB_RELEASE(m)   function acquires / releases m
//   TCB_ACQUIRED_BEFORE/AFTER(...)    documents (and, under
//                         -Wthread-safety-beta, checks) lock ordering
//   TCB_GUARDS(...)       documentation-only: on a Mutex member, lists the
//                         state it protects (tcb-lint's annotated-shared-state
//                         rule requires it; see below)
//   TCB_LOCK_FREE         documentation-only: marks a deliberately unguarded
//                         atomic member (published with acquire/release)
//
// `TCB_GUARDS` / `TCB_LOCK_FREE` expand to nothing on every compiler; they
// exist so the capability map is written at the declaration site where the
// `annotated-shared-state` lint rule can insist on it, instead of drifting in
// a comment nobody updates.
#pragma once

#include <condition_variable>
#include <mutex>
#include <type_traits>
#include <utility>

#if defined(__clang__) && !defined(SWIG)
#define TCB_TSA_ATTRIBUTE(x) __attribute__((x))
#else
#define TCB_TSA_ATTRIBUTE(x)  // compiled away off-clang
#endif

#define TCB_CAPABILITY(x) TCB_TSA_ATTRIBUTE(capability(x))
#define TCB_SCOPED_CAPABILITY TCB_TSA_ATTRIBUTE(scoped_lockable)
#define TCB_GUARDED_BY(x) TCB_TSA_ATTRIBUTE(guarded_by(x))
#define TCB_PT_GUARDED_BY(x) TCB_TSA_ATTRIBUTE(pt_guarded_by(x))
#define TCB_REQUIRES(...) TCB_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define TCB_ACQUIRE(...) TCB_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define TCB_RELEASE(...) TCB_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))
#define TCB_TRY_ACQUIRE(...) \
  TCB_TSA_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TCB_EXCLUDES(...) TCB_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define TCB_ACQUIRED_BEFORE(...) TCB_TSA_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define TCB_ACQUIRED_AFTER(...) TCB_TSA_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define TCB_RETURN_CAPABILITY(x) TCB_TSA_ATTRIBUTE(lock_returned(x))
#define TCB_ASSERT_CAPABILITY(x) TCB_TSA_ATTRIBUTE(assert_capability(x))
#define TCB_NO_THREAD_SAFETY_ANALYSIS \
  TCB_TSA_ATTRIBUTE(no_thread_safety_analysis)

/// Documentation-only annotations (expand to nothing everywhere); see the
/// header comment and tcb-lint's annotated-shared-state rule.
#define TCB_GUARDS(...)
#define TCB_LOCK_FREE
/// Marks a never-locked `lock_order` anchor mutex (see namespace lock_order
/// below): it exists only as a rank in the canonical acquisition order, so
/// it guards nothing and needs no TCB_GUARDS map.
#define TCB_LOCK_ORDER_ANCHOR

namespace tcb {

class CondVar;

/// A std::mutex carrying the "mutex" capability. Lock it for a scope with
/// MutexLock; lock()/unlock() exist for the rare manual pairing and for
/// adopting code, and are themselves annotated so the analysis tracks them.
class TCB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TCB_ACQUIRE() { m_.lock(); }
  void unlock() TCB_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() TCB_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex m_;
};

/// RAII scope holding a Mutex — the project's lock_guard *and* unique_lock:
/// the held mutex can be waited on through CondVar, which needs the
/// unlock/relock underneath that a plain lock_guard cannot do.
class TCB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) TCB_ACQUIRE(mutex) : lock_(mutex.m_) {}
  ~MutexLock() TCB_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. wait() must be called
/// with the lock held (enforced by construction: only a live MutexLock can
/// be passed). As with std::condition_variable, the predicate-less overload
/// is subject to spurious wakeups — call it in a while loop over the guarded
/// condition, which also keeps the analysis checking every condition read.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// The canonical cross-class lock order (DESIGN.md §11), expressed as a
/// chain of never-locked anchor mutexes. TSA's ACQUIRED_BEFORE/AFTER
/// attributes need in-scope capability expressions, and one class's private
/// mutex cannot name another class's private mutex — so each pipeline stage
/// gets an anchor here, the anchors chain into a total order, and every
/// real mutex declares its stage with TCB_ACQUIRED_AFTER(lock_order::...).
/// Under `-Wthread-safety-beta` clang checks the order per TU; tcb-lint's
/// lock-order-graph rule checks the same ranks whole-program, so the two
/// analyses enforce one canonical order:
///
///   admission < formation < execution < pool < latch
///
/// i.e. the admission queue's lock is acquired before (never inside) any
/// batch-formation lock, which precedes the execution ledger, which
/// precedes the thread-pool queue lock, with the pool's region error slot
/// innermost. The anchors are zero-cost: never locked, and `inline` vars
/// of an empty-beyond-std::mutex type.
namespace lock_order {
inline Mutex admission TCB_LOCK_ORDER_ANCHOR;
inline Mutex formation TCB_LOCK_ORDER_ANCHOR
    TCB_ACQUIRED_AFTER(lock_order::admission);
inline Mutex execution TCB_LOCK_ORDER_ANCHOR
    TCB_ACQUIRED_AFTER(lock_order::formation);
inline Mutex pool TCB_LOCK_ORDER_ANCHOR
    TCB_ACQUIRED_AFTER(lock_order::execution);
inline Mutex latch TCB_LOCK_ORDER_ANCHOR
    TCB_ACQUIRED_AFTER(lock_order::pool);
}  // namespace lock_order

// Zero-overhead contract: the wrappers are their std counterparts plus
// compile-time attributes, nothing else. Same guarantee style as
// strong_index.hpp.
static_assert(sizeof(Mutex) == sizeof(std::mutex) &&
                  alignof(Mutex) == alignof(std::mutex),
              "tcb::Mutex must add no state over std::mutex");
static_assert(sizeof(CondVar) == sizeof(std::condition_variable) &&
                  alignof(CondVar) == alignof(std::condition_variable),
              "tcb::CondVar must add no state over std::condition_variable");
static_assert(sizeof(MutexLock) == sizeof(std::unique_lock<std::mutex>) &&
                  alignof(MutexLock) == alignof(std::unique_lock<std::mutex>),
              "tcb::MutexLock must add no state over std::unique_lock");
static_assert(!std::is_copy_constructible_v<Mutex> &&
                  !std::is_copy_constructible_v<MutexLock>,
              "locks and capabilities never copy");

}  // namespace tcb
