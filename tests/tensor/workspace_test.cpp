// Tests of the per-thread Workspace arena (tensor/workspace.hpp): scope
// discipline, alignment, chunk growth, and — the property the whole design
// exists for — zero heap allocations in the steady-state forward path once
// the arenas and thread_local activation tensors are warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/attention.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"

namespace tcb {
namespace {

TEST(WorkspaceTest, ScopesRewindLifo) {
  Workspace& ws = Workspace::this_thread();
  WorkspaceScope outer(ws);
  float* a = outer.alloc(100);
  a[0] = 1.0f;
  a[99] = 2.0f;
  {
    WorkspaceScope inner(ws);
    float* b = inner.alloc(50);
    ASSERT_NE(b, nullptr);
    // The inner allocation comes after the outer one in the bump order.
    b[0] = 3.0f;
  }
  // After the inner scope rewinds, the next allocation reuses its space.
  WorkspaceScope again(ws);
  float* c = again.alloc(50);
  EXPECT_EQ(c[0], 3.0f);  // same storage, untouched by the rewind
  // Outer allocations survive inner scopes.
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(a[99], 2.0f);
}

TEST(WorkspaceTest, AllocationsAre64ByteAligned) {
  WorkspaceScope scope;
  for (const std::size_t n : {1u, 3u, 17u, 100u, 1000u}) {
    float* p = scope.alloc(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(WorkspaceTest, WarmedArenaStopsAllocatingChunks) {
  // Two passes of identical allocation traffic: the first may grow chunks,
  // the second must be served entirely from existing storage.
  const auto pass = [] {
    WorkspaceScope scope;
    (void)scope.alloc(10000);
    for (int i = 0; i < 20; ++i) {
      WorkspaceScope inner;
      (void)inner.alloc(50000);
      (void)inner.alloc(123);
    }
  };
  pass();
  const std::uint64_t warmed = Workspace::total_chunk_allocs();
  for (int i = 0; i < 3; ++i) pass();
  EXPECT_EQ(Workspace::total_chunk_allocs(), warmed);
  EXPECT_GT(Workspace::total_reserved_bytes(), 0u);
}

TEST(WorkspaceTest, StatsTrackHighWater) {
  Workspace& ws = Workspace::this_thread();
  const auto before = ws.stats();
  {
    WorkspaceScope scope(ws);
    (void)scope.alloc(200000);
  }
  const auto after = ws.stats();
  EXPECT_GE(after.high_water_bytes, 200000 * sizeof(float));
  EXPECT_GE(after.reserved_bytes, before.reserved_bytes);
}

TEST(WorkspaceTest, OverflowReusesParkedChunks) {
  // Overflow points that move from pass to pass: pass A overflows at a big
  // request, pass B at a small one after a big prefix. The chunks parked
  // behind the active one must be reused (rotated into place when a later
  // one is the fit) — an arena that inserted a fresh chunk on every
  // overflow grew by one chunk per pass here, forever. Runs on a fresh
  // worker thread, whose arena starts empty.
  ThreadPool pool(1);
  pool.submit([] {
    Workspace& ws = Workspace::this_thread();
    const auto pass_a = [&] {
      WorkspaceScope scope(ws);
      (void)scope.alloc(60000);
      (void)scope.alloc(200000);
    };
    const auto pass_b = [&] {
      WorkspaceScope scope(ws);
      (void)scope.alloc(60000);
      (void)scope.alloc(10000);
      (void)scope.alloc(300000);
    };
    pass_a();
    pass_b();
    const std::uint64_t warmed = Workspace::total_chunk_allocs();
    const std::size_t reserved = ws.stats().reserved_bytes;
    for (int i = 0; i < 5; ++i) {
      pass_a();
      pass_b();
    }
    EXPECT_EQ(Workspace::total_chunk_allocs(), warmed);
    EXPECT_EQ(ws.stats().reserved_bytes, reserved);
  }).get();
}

TEST(WorkspaceTest, HighWaterCountsBytesInUseNotChunkCapacity) {
  // 60000 floats fill most of the first chunk; 10000 more overflow into a
  // second. Rewinding an inner scope inside the second chunk must restore
  // the exact in-use tally below it, not the first chunk's full capacity.
  ThreadPool pool(1);
  pool.submit([] {
    Workspace& ws = Workspace::this_thread();
    WorkspaceScope outer(ws);
    (void)outer.alloc(60000);
    WorkspaceScope mid(ws);
    (void)mid.alloc(10000);
    {
      WorkspaceScope inner(ws);
      (void)inner.alloc(4096);
    }
    (void)mid.alloc(4096);
    EXPECT_EQ(ws.stats().high_water_bytes,
              (60000 + 10000 + 4096) * sizeof(float));
  }).get();
}

TEST(WorkspaceTest, SteadyStateForwardPathIsHeapAllocationFree) {
  // The acceptance property of the arena redesign: after warm-up, repeated
  // encoder attention forwards (which drive the blocked GEMMs, the flash
  // attention tiles, and the projection scratch) must not grow any thread's
  // arena. Tensor-level activation returns still allocate — the claim is
  // scoped to kernel scratch, which this counter measures exactly.
  ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  Rng rng(7);
  const MultiHeadAttention mha(cfg, rng);

  const Index width = 192;
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatPure;
  RowLayout row;
  row.segments.push_back(Segment{0, 0, 100, 0});
  row.segments.push_back(Segment{1, 100, 60, 0});
  row.width = 160;
  plan.rows.push_back(row);
  plan.validate();
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);

  // Warm-up: grows every worker's arena to its steady footprint and shapes
  // the thread_local activation tensors.
  for (int i = 0; i < 3; ++i)
    (void)mha.encoder_forward(x, plan, Col{width}, AttentionMode::kPureConcat);

  const std::uint64_t warmed = Workspace::total_chunk_allocs();
  for (int i = 0; i < 5; ++i)
    (void)mha.encoder_forward(x, plan, Col{width}, AttentionMode::kPureConcat);
  EXPECT_EQ(Workspace::total_chunk_allocs(), warmed)
      << "steady-state forward grew a workspace arena";
}

}  // namespace
}  // namespace tcb
