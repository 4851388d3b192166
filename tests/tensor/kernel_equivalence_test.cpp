// Differential tests of the blocked/SIMD kernel layer against the scalar
// reference kernels in src/tensor/kernel_ref.hpp. Every fast path (packed
// GEMM, small-matrix GEMM, fused elementwise/softmax/layer-norm, fused
// mask+softmax attention) must agree with the naive loops within a float
// accumulation tolerance on shapes that exercise all tile-edge cases:
// dimensions below one register tile, exactly one tile, one-past-a-tile,
// and far from any multiple of the blocking factors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/attention.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_ref.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace tcb {
namespace {

constexpr float kTol = 1e-4f;

/// Shapes chosen to straddle the microkernel tiles (MR up to 8, NR up to 32,
/// kc = 256): scalars, primes, one-off-a-power-of-two, and sizes crossing
/// the kc blocking boundary.
const std::vector<Index> kEdgeSizes = {1, 3, 5, 7, 17, 33, 63, 65, 100, 129};

TEST(KernelEquivalence, MatmulMatchesReferenceOnEdgeShapes) {
  Rng rng(11);
  for (const Index m : kEdgeSizes) {
    for (const Index k : {Index{1}, Index{7}, Index{64}, Index{129}, Index{300}}) {
      const Index n = kEdgeSizes[static_cast<std::size_t>((m + k) %
                      static_cast<Index>(kEdgeSizes.size()))];
      const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
      const Tensor b = Tensor::random_uniform(Shape{k, n}, rng, 1.0f);
      Tensor fast, slow;
      matmul(a, b, fast);
      ref::matmul(a, b, slow);
      ASSERT_EQ(fast.shape(), slow.shape());
      EXPECT_LE(max_abs_diff(fast, slow), kTol)
          << "m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(KernelEquivalence, MatmulNtMatchesReferenceOnEdgeShapes) {
  Rng rng(12);
  for (const Index m : kEdgeSizes) {
    for (const Index k : {Index{1}, Index{7}, Index{64}, Index{129}, Index{300}}) {
      const Index n = kEdgeSizes[static_cast<std::size_t>((m * 3 + k) %
                      static_cast<Index>(kEdgeSizes.size()))];
      const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
      const Tensor b = Tensor::random_uniform(Shape{n, k}, rng, 1.0f);
      Tensor fast, slow;
      matmul_nt(a, b, fast);
      ref::matmul_nt(a, b, slow);
      ASSERT_EQ(fast.shape(), slow.shape());
      EXPECT_LE(max_abs_diff(fast, slow), kTol)
          << "m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(KernelEquivalence, MatmulCrossesKcBlockBoundary) {
  // k > 256 forces multiple packed kc-blocks with accumulate-into-C; the
  // result must still match the single-sweep reference.
  Rng rng(13);
  const Tensor a = Tensor::random_uniform(Shape{65, 517}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{517, 33}, rng, 1.0f);
  Tensor fast, slow;
  matmul(a, b, fast);
  ref::matmul(a, b, slow);
  EXPECT_LE(max_abs_diff(fast, slow), 5e-4f);
}

TEST(KernelEquivalence, SoftmaxMatchesReferenceIncludingFullyMaskedRows) {
  Rng rng(14);
  for (const Index n : kEdgeSizes) {
    Tensor fast = Tensor::random_uniform(Shape{8, n}, rng, 3.0f);
    // Row 2: fully masked. Row 4: masked except one entry (if it exists).
    for (Index j = 0; j < n; ++j) {
      fast.at(2, j) = kMaskedOut;
      if (j > 0) fast.at(4 % 8, j) = kMaskedOut;
    }
    Tensor slow = fast.clone();
    softmax_rows_inplace(fast);
    ref::softmax_rows_inplace(slow);
    EXPECT_LE(max_abs_diff(fast, slow), kTol) << "n=" << n;
    for (Index j = 0; j < n; ++j)
      EXPECT_EQ(fast.at(2, j), 0.0f) << "fully-masked row must zero out";
  }
}

TEST(KernelEquivalence, LayerNormMatchesReference) {
  Rng rng(15);
  for (const Index n : kEdgeSizes) {
    const Tensor x = Tensor::random_uniform(Shape{6, n}, rng, 2.0f);
    const Tensor gamma = Tensor::random_uniform(Shape{n}, rng, 1.0f);
    const Tensor beta = Tensor::random_uniform(Shape{n}, rng, 1.0f);
    Tensor fast, slow;
    layer_norm(x, gamma, beta, 1e-5f, fast);
    ref::layer_norm(x, gamma, beta, 1e-5f, slow);
    EXPECT_LE(max_abs_diff(fast, slow), kTol) << "n=" << n;
  }
}

TEST(KernelEquivalence, ReluMatchesReference) {
  Rng rng(16);
  for (const Index n : kEdgeSizes) {
    Tensor fast = Tensor::random_uniform(Shape{5, n}, rng, 4.0f);
    Tensor slow = fast.clone();
    relu_inplace(fast);
    ref::relu_inplace(slow);
    EXPECT_EQ(max_abs_diff(fast, slow), 0.0f) << "n=" << n;
  }
}

/// Builds a single-row plan with `seg_lens` concatenated segments padded to
/// `width`.
BatchPlan concat_plan(const std::vector<Index>& seg_lens, Index width) {
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatPure;
  RowLayout row;
  Index off = 0;
  Index id = 0;
  for (const Index len : seg_lens) {
    row.segments.push_back(Segment{id++, off, len, 0});
    off += len;
  }
  row.width = width;
  plan.rows.push_back(row);
  plan.validate();
  return plan;
}

TEST(KernelEquivalence, FusedAttentionMatchesFullMatrixReference) {
  ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  Rng rng(17);
  const MultiHeadAttention mha(cfg, rng);
  // Odd segment lengths, trailing padding, and a width that is not a
  // multiple of any SIMD lane count.
  const Index width = 87;
  const BatchPlan plan = concat_plan({13, 29, 7, 21}, width);
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  for (const MaskPolicy mask : {MaskPolicy::kSegment, MaskPolicy::kRowShared}) {
    const Tensor fast =
        mha.encoder_forward(x, plan, Col{width}, AttentionMode::kPureConcat, mask);
    const Tensor slow = mha.encoder_forward_reference(
        x, plan, Col{width}, AttentionMode::kPureConcat, mask);
    EXPECT_LE(max_abs_diff(fast, slow), 2e-4f)
        << "mask=" << static_cast<int>(mask);
  }
}

TEST(KernelEquivalence, FusedAttentionSlottedMatchesReference) {
  ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  Rng rng(18);
  const MultiHeadAttention mha(cfg, rng);
  const Index width = 96;
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatSlotted;
  plan.slot_len = 32;
  RowLayout row;
  row.segments.push_back(Segment{0, 0, 20, 0});
  row.segments.push_back(Segment{1, 20, 12, 0});
  row.segments.push_back(Segment{2, 32, 31, 1});
  row.segments.push_back(Segment{3, 64, 9, 2});
  row.width = width;
  plan.rows.push_back(row);
  plan.validate();
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  const Tensor fast =
      mha.encoder_forward(x, plan, Col{width}, AttentionMode::kSlotted);
  const Tensor slow = mha.encoder_forward_reference(
      x, plan, Col{width}, AttentionMode::kSlotted);
  EXPECT_LE(max_abs_diff(fast, slow), 2e-4f);
}

// --- Flash attention vs the materialized reference --------------------------
//
// The flash kernel (online softmax, vectorized exp, tiled scores) is NOT
// bitwise-identical to the reference: its dots reassociate and its exp is a
// polynomial. The contract is closeness in ULPs for every element of
// ordinary magnitude; elements that agree within a tiny absolute epsilon
// (cancellation near zero makes ULP distance meaningless there) are exempt.

/// Max ULP distance over elements whose absolute difference exceeds
/// `abs_tol` (those below it are treated as equal).
std::int64_t ulp_beyond_abs(const Tensor& a, const Tensor& b, float abs_tol) {
  Tensor aa = a.clone();
  Tensor bb = b.clone();
  const auto da = aa.data();
  const auto db = bb.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    if (std::fabs(da[i] - db[i]) <= abs_tol)
      bb.raw()[i] = da[i];
  return max_ulp_diff(aa, bb);
}

constexpr float kFlashAbsTol = 2e-6f;
constexpr std::int64_t kFlashUlpTol = 1024;  // ~6e-5 relative

ModelConfig small_attention_cfg() {
  ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  return cfg;
}

TEST(FlashAttention, UlpSweepAcrossOddShapes) {
  // Widths 1..129 chosen to straddle every boundary the kernel has: below
  // one SIMD lane, around the kTile = 64 score tile, and around 128 = two
  // tiles. Each width runs with a multi-segment split (when it fits) plus
  // trailing padding, under both mask policies.
  const ModelConfig cfg = small_attention_cfg();
  Rng rng(41);
  const MultiHeadAttention mha(cfg, rng);
  for (const Index width :
       {Index{1}, Index{2}, Index{3}, Index{5}, Index{9}, Index{17}, Index{31},
        Index{33}, Index{63}, Index{64}, Index{65}, Index{97}, Index{127},
        Index{128}, Index{129}}) {
    std::vector<Index> segs;
    Index used = width - (width > 4 ? width / 5 : 0);  // leave some padding
    if (used >= 7) {
      segs = {used / 3, used / 4 + 1, used - used / 3 - used / 4 - 1};
    } else {
      segs = {used};
    }
    const BatchPlan plan = concat_plan(segs, width);
    const Tensor x =
        Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
    for (const MaskPolicy mask :
         {MaskPolicy::kSegment, MaskPolicy::kRowShared}) {
      const Tensor fast = mha.encoder_forward(x, plan, Col{width},
                                              AttentionMode::kPureConcat, mask);
      const Tensor slow = mha.encoder_forward_reference(
          x, plan, Col{width}, AttentionMode::kPureConcat, mask);
      EXPECT_LE(ulp_beyond_abs(fast, slow, kFlashAbsTol), kFlashUlpTol)
          << "width=" << width << " mask=" << static_cast<int>(mask);
    }
  }
}

TEST(FlashAttention, SlottedTileStraddlingSegmentWidths) {
  // Segment widths straddling the kTile = 64 boundary from both sides, laid
  // out in slot_len = 128 slots: tiles must never read past a segment, and
  // the partial final tile of each span must be handled exactly.
  const ModelConfig cfg = small_attention_cfg();
  Rng rng(42);
  const MultiHeadAttention mha(cfg, rng);
  const Index width = 512;
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatSlotted;
  plan.slot_len = 128;
  RowLayout row;
  row.segments.push_back(Segment{0, 0, 63, 0});
  row.segments.push_back(Segment{1, 63, 65, 0});
  row.segments.push_back(Segment{2, 128, 127, 1});
  row.segments.push_back(Segment{3, 255, 1, 1});
  row.segments.push_back(Segment{4, 256, 128, 2});
  row.segments.push_back(Segment{5, 384, 64, 3});
  row.width = 448;
  plan.rows.push_back(row);
  plan.validate();
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  for (const AttentionMode mode :
       {AttentionMode::kSlotted, AttentionMode::kPureConcat}) {
    const Tensor fast = mha.encoder_forward(x, plan, Col{width}, mode);
    const Tensor slow =
        mha.encoder_forward_reference(x, plan, Col{width}, mode);
    EXPECT_LE(ulp_beyond_abs(fast, slow, kFlashAbsTol), kFlashUlpTol)
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(FlashAttention, FullyMaskedPaddingRowsMatchReferenceExactly) {
  // Padding queries admit no keys: the flash kernel must leave their head
  // outputs exactly zero (not exp-underflow residue), which makes the
  // projected rows bitwise equal to the reference's.
  const ModelConfig cfg = small_attention_cfg();
  Rng rng(43);
  const MultiHeadAttention mha(cfg, rng);
  const Index width = 96;
  const BatchPlan plan = concat_plan({30, 21}, width);  // 45 padding columns
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  for (const MaskPolicy mask :
       {MaskPolicy::kSegment, MaskPolicy::kRowShared}) {
    const Tensor fast = mha.encoder_forward(x, plan, Col{width},
                                            AttentionMode::kPureConcat, mask);
    const Tensor slow = mha.encoder_forward_reference(
        x, plan, Col{width}, AttentionMode::kPureConcat, mask);
    for (Index pos = 51; pos < width; ++pos)
      for (Index j = 0; j < cfg.d_model; ++j)
        ASSERT_EQ(fast.at(pos, j), slow.at(pos, j))
            << "padding row " << pos << " col " << j
            << " mask=" << static_cast<int>(mask);
  }
}

TEST(FlashAttention, SingleTokenSegmentsReproduceValuesExactly) {
  // A single-token segment attends only itself: softmax weight is exactly
  // 1.0 on both paths (the vectorized exp is exact at 0), so flash and
  // reference agree bitwise across the whole batch.
  const ModelConfig cfg = small_attention_cfg();
  Rng rng(44);
  const MultiHeadAttention mha(cfg, rng);
  const Index width = 16;
  const BatchPlan plan =
      concat_plan(std::vector<Index>(13, Index{1}), width);
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  const Tensor fast = mha.encoder_forward(x, plan, Col{width},
                                          AttentionMode::kPureConcat);
  const Tensor slow = mha.encoder_forward_reference(
      x, plan, Col{width}, AttentionMode::kPureConcat);
  EXPECT_EQ(max_abs_diff(fast, slow), 0.0f);
}

TEST(FlashAttention, MatchesReferenceOnSlottedRowSharedPlan) {
  // A slotted plan whose first slot holds two segments, under both modes
  // and both masks: the row-shared mask admits several spans per query,
  // and the reference materializes and masks the whole score matrix that
  // the flash kernel never builds.
  const ModelConfig cfg = small_attention_cfg();
  Rng rng(45);
  const MultiHeadAttention mha(cfg, rng);
  const Index width = 160;
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatSlotted;
  plan.slot_len = 64;
  RowLayout row;
  row.segments.push_back(Segment{0, 0, 40, 0});
  row.segments.push_back(Segment{1, 40, 24, 0});
  row.segments.push_back(Segment{2, 64, 64, 1});
  row.segments.push_back(Segment{3, 128, 17, 2});
  row.width = 145;
  plan.rows.push_back(row);
  plan.validate();
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  for (const AttentionMode mode :
       {AttentionMode::kPureConcat, AttentionMode::kSlotted}) {
    for (const MaskPolicy mask :
         {MaskPolicy::kSegment, MaskPolicy::kRowShared}) {
      const Tensor flash = mha.encoder_forward(x, plan, Col{width}, mode, mask);
      const Tensor slow =
          mha.encoder_forward_reference(x, plan, Col{width}, mode, mask);
      EXPECT_LE(ulp_beyond_abs(flash, slow, kFlashAbsTol), kFlashUlpTol)
          << "mode=" << static_cast<int>(mode)
          << " mask=" << static_cast<int>(mask);
    }
  }
}

TEST(FlashAttention, ConcatBatchingIsBitwiseNeutral) {
  // The load-bearing invariance (DESIGN.md §13): a request's output must be
  // bitwise identical whether its segment runs alone or concatenated with
  // other requests, because tiles step from each span's own start. This is
  // what lets the serving layer batch opportunistically without
  // reproducibility caveats.
  const ModelConfig cfg = small_attention_cfg();
  Rng rng(46);
  const MultiHeadAttention mha(cfg, rng);
  const Index w0 = 40;
  const BatchPlan solo = concat_plan({w0}, w0);
  const Index width = 87;
  const BatchPlan batched = concat_plan({w0, 33}, width);

  const Tensor xb = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  Tensor xs(Shape{w0, cfg.d_model});
  for (Index i = 0; i < w0; ++i)
    for (Index j = 0; j < cfg.d_model; ++j) xs.at(i, j) = xb.at(i, j);

  const Tensor out_solo = mha.encoder_forward(xs, solo, Col{w0},
                                              AttentionMode::kPureConcat);
  const Tensor out_batched = mha.encoder_forward(xb, batched, Col{width},
                                                 AttentionMode::kPureConcat);
  for (Index i = 0; i < w0; ++i)
    for (Index j = 0; j < cfg.d_model; ++j)
      ASSERT_EQ(out_solo.at(i, j), out_batched.at(i, j))
          << "row " << i << " col " << j;
}

TEST(SimdExp, ExpShiftMatchesStdExpWithinRelTol) {
  // The vectorized exp (Cephes-style degree-5 polynomial) claims ~2e-7
  // relative error across the finite range; the flash softmax leans on
  // that. Sizes cover every vector/tail split.
  Rng rng(47);
  for (const Index n :
       {Index{1}, Index{2}, Index{7}, Index{15}, Index{16}, Index{17},
        Index{31}, Index{32}, Index{33}, Index{100}}) {
    std::vector<float> vals(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      // Spread across the useful softmax range [-80, 8] plus exact zero.
      const float u = static_cast<float>(rng.next_double());
      vals[static_cast<std::size_t>(i)] =
          i == 0 ? 0.0f : -80.0f + 88.0f * u;
    }
    std::vector<float> got = vals;
    simd::exp_shift_inplace(got.data(), 0.0f, n);
    for (Index i = 0; i < n; ++i) {
      const double expect =
          std::exp(static_cast<double>(vals[static_cast<std::size_t>(i)]));
      const double rel =
          std::fabs(static_cast<double>(got[static_cast<std::size_t>(i)]) - expect) /
          expect;
      EXPECT_LE(rel, 5e-7) << "n=" << n << " x=" << vals[static_cast<std::size_t>(i)];
    }
  }
  // The shift is applied before clamping: exp(x - shift) for x == shift is
  // exactly 1.
  float one = 5.0f;
  simd::exp_shift_inplace(&one, 5.0f, 1);
  EXPECT_EQ(one, 1.0f);
}

TEST(GemmGrainTest, RespectsFlopFloorAndFanOut) {
  // Tiny per-row work: grain must batch many rows per chunk so no chunk
  // falls under the sequential-worthwhile floor.
  const std::size_t tiny = gemm_grain(10000, 4, 4);
  EXPECT_GE(tiny, 2048u);  // 32768 madds / 16 per row

  // Huge per-row work: the FLOP floor is met by a single row, so the grain
  // is governed by fan-out — at most ~m / (3 * workers) rows per chunk, and
  // never below 1.
  const std::size_t workers = ThreadPool::global().parallelism();
  const std::size_t big = gemm_grain(1024, 1024, 1024);
  EXPECT_GE(big, 1u);
  const std::size_t max_fanout_grain =
      (1024 + 3 * workers - 1) / (3 * workers);
  EXPECT_LE(big, std::max<std::size_t>(max_fanout_grain, 1u));

  // Degenerate shapes must stay positive.
  EXPECT_EQ(gemm_grain(0, 16, 16), 1u);
  EXPECT_EQ(gemm_grain(16, 0, 16), 1u);
}

}  // namespace
}  // namespace tcb
