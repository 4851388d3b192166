#include "tensor/workspace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "parallel/sync.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

/// Floats of the first chunk a thread allocates (256 KiB). Later chunks grow
/// geometrically, so a thread reaches any steady-state footprint in O(log)
/// heap allocations.
constexpr std::size_t kMinChunkFloats = std::size_t{1} << 16;

constexpr std::size_t kAlignBytes = 64;
constexpr std::size_t kAlignFloats = kAlignBytes / sizeof(float);

/// Monotonic process-wide statistics; every thread's arena bumps them.
std::atomic<std::uint64_t> g_chunk_allocs TCB_LOCK_FREE{0};
std::atomic<std::uint64_t> g_reserved_bytes TCB_LOCK_FREE{0};

}  // namespace

Workspace& Workspace::this_thread() {
  static thread_local Workspace ws;
  return ws;
}

float* Workspace::base(Chunk& c) noexcept {
  auto addr = reinterpret_cast<std::uintptr_t>(c.storage.data());
  const std::uintptr_t aligned = (addr + kAlignBytes - 1) & ~(kAlignBytes - 1);
  return c.storage.data() + (aligned - addr) / sizeof(float);
}

float* Workspace::alloc(std::size_t n_floats) {
  TCB_DCHECK(live_scopes_ > 0, "Workspace::alloc outside a WorkspaceScope");
  // Keep every allocation aligned by rounding sizes to the alignment grain.
  const std::size_t n = std::max<std::size_t>(
      kAlignFloats, (n_floats + kAlignFloats - 1) & ~(kAlignFloats - 1));
  if (active_ >= chunks_.size() || chunks_[active_].capacity - offset_ < n) {
    // Overflow: continue in the chunk directly after the active one. Every
    // chunk past active_ is parked (LIFO scopes rewound everything in it),
    // so the first parked chunk that fits is rotated into that position and
    // reused; only when none fits is a new, larger chunk inserted there.
    // A warmed arena therefore stops allocating no matter how the overflow
    // points move from one pass to the next.
    const std::size_t at = chunks_.empty() ? 0 : active_ + 1;
    if (!chunks_.empty()) used_before_active_ += offset_;
    std::size_t fit = at;
    while (fit < chunks_.size() && chunks_[fit].capacity < n) ++fit;
    if (fit < chunks_.size()) {
      std::rotate(chunks_.begin() + static_cast<std::ptrdiff_t>(at),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(fit),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(fit) + 1);
    } else {
      const std::size_t grown =
          chunks_.empty() ? kMinChunkFloats : 2 * chunks_[active_].capacity;
      const std::size_t cap = std::max({n, kMinChunkFloats, grown});
      Chunk c;
      c.storage.resize(cap + kAlignFloats);
      c.capacity = cap;
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(at),
                     std::move(c));
      g_chunk_allocs.fetch_add(1, std::memory_order_relaxed);
      g_reserved_bytes.fetch_add((cap + kAlignFloats) * sizeof(float),
                                 std::memory_order_relaxed);
    }
    active_ = at;
    offset_ = 0;
  }
  float* p = base(chunks_[active_]) + offset_;
  offset_ += n;
  high_water_floats_ =
      std::max(high_water_floats_, used_before_active_ + offset_);
  return p;
}

void Workspace::rewind(Mark m) noexcept {
  // The mark carries the exact in-use tally of the chunks below it, so the
  // high-water statistic counts bytes handed out, not chunk capacities.
  active_ = m.chunk;
  offset_ = m.offset;
  used_before_active_ = m.used_before;
}

Workspace::Stats Workspace::stats() const noexcept {
  Stats s;
  for (const Chunk& c : chunks_)
    s.reserved_bytes += (c.capacity + kAlignFloats) * sizeof(float);
  s.high_water_bytes = high_water_floats_ * sizeof(float);
  return s;
}

std::uint64_t Workspace::total_chunk_allocs() noexcept {
  return g_chunk_allocs.load(std::memory_order_relaxed);
}

std::size_t Workspace::total_reserved_bytes() noexcept {
  return static_cast<std::size_t>(
      g_reserved_bytes.load(std::memory_order_relaxed));
}

WorkspaceScope::~WorkspaceScope() {
  TCB_DCHECK(ws_.live_scopes_ == depth_,
             "WorkspaceScope destroyed out of LIFO order");
  --ws_.live_scopes_;
  ws_.rewind(mark_);
}

}  // namespace tcb
