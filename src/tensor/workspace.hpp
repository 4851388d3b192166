// Per-thread bump-allocator arena for kernel scratch memory.
//
// The hot forward path (GEMM packing panels, attention K/V tile buffers)
// used to allocate per-call std::vectors; under serving load that is one
// heap round-trip per layer per request batch. A Workspace is a per-thread
// arena: allocation is a pointer bump, deallocation is a scope rewind, and
// the backing chunks are kept across calls — after the first (warm-up)
// forward pass the steady state performs zero heap allocations for kernel
// scratch. `workspace_test.cpp` pins that property via the global
// chunk-allocation counter.
//
// Usage contract:
//
//   WorkspaceScope scope;                 // marks the current thread's arena
//   float* buf = scope.alloc(n);          // valid until `scope` dies
//   ...                                   // nested scopes rewind LIFO
//
// Threading: `Workspace::this_thread()` returns a thread_local instance, so
// scratch never crosses threads and no locking exists on the alloc path. The
// only shared state is a pair of process-wide TCB_LOCK_FREE counters
// (monotonic statistics, read by tests and benches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/lifetime.hpp"

namespace tcb {

class WorkspaceScope;

class Workspace {
 public:
  struct Stats {
    std::size_t reserved_bytes = 0;    ///< sum of this thread's chunk sizes
    std::size_t high_water_bytes = 0;  ///< peak simultaneous bytes handed
                                       ///< out (alignment rounding included)
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use, lives for the
  /// thread's lifetime — stable storage).
  [[nodiscard]] static Workspace& this_thread();

  [[nodiscard]] Stats stats() const noexcept;

  /// Process-wide count of backing-chunk heap allocations across every
  /// thread's workspace. Flat between two identical forward passes once the
  /// arenas are warm — the steady-state zero-allocation property.
  [[nodiscard]] static std::uint64_t total_chunk_allocs() noexcept;

  /// Process-wide sum of reserved backing bytes across all thread arenas.
  [[nodiscard]] static std::size_t total_reserved_bytes() noexcept;

 private:
  friend class WorkspaceScope;

  struct Mark {
    std::size_t chunk = 0;
    std::size_t offset = 0;       ///< floats used in that chunk
    std::size_t used_before = 0;  ///< floats in use in the chunks below it
  };

  struct Chunk {
    std::vector<float> storage;
    std::size_t capacity = 0;  ///< usable floats after alignment
  };

  [[nodiscard]] float* alloc(std::size_t n_floats);
  [[nodiscard]] Mark mark() const noexcept {
    return Mark{active_, offset_, used_before_active_};
  }
  void rewind(Mark m) noexcept;

  /// Aligned base of a chunk's storage.
  [[nodiscard]] static float* base(Chunk& c) noexcept;

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunk currently bumped into
  std::size_t offset_ = 0;  ///< floats used in the active chunk
  std::size_t used_before_active_ = 0;  ///< floats in use in chunks < active_
  std::size_t high_water_floats_ = 0;
  std::uint32_t live_scopes_ = 0;  ///< for the LIFO discipline check
};

/// RAII mark/rewind over a Workspace. Allocations made through a scope are
/// valid until the scope is destroyed; scopes on one thread must nest LIFO
/// (enforced by TCB_DCHECK). The returned buffers are 64-byte aligned.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& ws = Workspace::this_thread())
      : ws_(ws), mark_(ws.mark()), depth_(++ws.live_scopes_) {}
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;
  ~WorkspaceScope();

  /// n floats of 64-byte-aligned scratch, zero-initialization NOT implied.
  // Provenance (span-source-stability): the buffer lives in the thread's
  // arena and is stable until this scope is destroyed.
  [[nodiscard]] float* alloc(std::size_t n_floats) TCB_LIFETIME_BOUND {
    return ws_.alloc(n_floats);
  }

 private:
  Workspace& ws_;
  Workspace::Mark mark_;
  std::uint32_t depth_;
};

}  // namespace tcb
