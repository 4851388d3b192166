// Batching invariance of matmul for every depth k (tensor/gemm.cpp's
// numerical contract): a row of C must be bitwise the same whether it is
// computed alone, alongside a few other rows (the in-place tiled path, any
// row-block remainder, any column tail) or alongside many (the blocked path,
// across any number of k-blocks). The blocked path used to add each later
// k-block's partial sum onto C, which split every element's FMA chain once
// k > kc — so a 16-row FFN down-projection (k = d_ff = 512)
// disagreed with the same rows multiplied one at a time, and a decode step's
// numerics depended on how its rows were sliced across workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tensor/ops.hpp"

namespace tcb {
namespace {

/// Rows of `c` vs the same rows of `a` multiplied one at a time.
void expect_rows_match_solo(const Tensor& a, const Tensor& b, const Tensor& c,
                            const std::string& what) {
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor row(Shape{1, k});
  Tensor solo;
  for (Index i = 0; i < m; ++i) {
    std::copy(a.row(i), a.row(i) + k, row.raw());
    matmul(row, b, solo);
    Index mismatched = 0;
    for (Index j = 0; j < n; ++j)
      if (solo.at(0, j) != c.at(i, j)) ++mismatched;
    EXPECT_EQ(mismatched, 0) << what << " row " << i;
  }
}

TEST(GemmInvariance, BatchedRowsMatchSoloRowsPastOneKBlock) {
  Rng rng(5);
  // k = 512 is the default model's FFN down-projection; 700 ends on a
  // partial block; 1024 spans four blocks. m = 64 and 100 route to the
  // blocked path, the shorter ones to the tiles.
  for (const Index k : {Index{256}, Index{512}, Index{700}, Index{1024}}) {
    for (const Index m : {Index{13}, Index{16}, Index{40}, Index{64},
                          Index{100}}) {
      const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
      const Tensor b = Tensor::random_uniform(Shape{k, 128}, rng, 1.0f);
      Tensor c;
      matmul(a, b, c);
      expect_rows_match_solo(a, b, c,
                             "k=" + std::to_string(k) +
                                 " m=" + std::to_string(m));
    }
  }
}

TEST(GemmInvariance, TiledRowsMatchSoloRowsAndBlockedPath) {
  // Every m below the blocked threshold runs the in-place tiled path, so
  // sweeping m = 1..kGemmBlockedMinRows hits every row-block remainder.
  // n covers the model's projection widths plus tails of one 8-lane vector
  // (8), one lane past a vector (17) and two past a whole tile (130); k = 1
  // is the shortest chain, 128 the model's d_model, 512 its d_ff. The rows
  // of one A are shared by every m, so the solo products run once per shape.
  Rng rng(11);
  const Index max_m = kGemmBlockedMinRows;
  for (const Index k : {Index{1}, Index{128}, Index{512}}) {
    for (const Index n : {Index{128}, Index{512}, Index{1024}, Index{8},
                          Index{17}, Index{130}}) {
      const std::string shape =
          "k=" + std::to_string(k) + " n=" + std::to_string(n);
      const Tensor a = Tensor::random_uniform(Shape{max_m, k}, rng, 1.0f);
      const Tensor b = Tensor::random_uniform(Shape{k, n}, rng, 1.0f);
      Tensor solo(Shape{max_m, n});
      for (Index i = 0; i < max_m; ++i)
        matmul(a.row(i), b.raw(), solo.row(i), 1, k, n);
      Tensor c(Shape{max_m, n});
      Tensor blocked(Shape{max_m, n});
      for (Index m = 1; m <= max_m; ++m) {
        const std::size_t count =
            static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
        matmul(a.raw(), b.raw(), c.raw(), m, k, n);
        gemm_blocked_with(a.raw(), b.raw(), blocked.raw(), m, k, n,
                          /*transposed_b=*/false);
        Index vs_solo = 0, vs_blocked = 0;
        for (std::size_t e = 0; e < count; ++e) {
          if (c.raw()[e] != solo.raw()[e]) ++vs_solo;
          if (c.raw()[e] != blocked.raw()[e]) ++vs_blocked;
        }
        EXPECT_EQ(vs_solo, 0) << shape << " m=" << m << " vs solo rows";
        EXPECT_EQ(vs_blocked, 0) << shape << " m=" << m << " vs blocked";
      }
    }
  }
}

TEST(GemmInvariance, BlockedPathContinuesTheChainAcrossKBlocks) {
  // Sixteen rows would route to the tiles; forcing them through the blocked
  // entry crosses 0 to 3 k-block boundaries (1 to 4 blocks of 256 depths,
  // the last one partial at k = 700), and every row must still equal its
  // solo product.
  Rng rng(9);
  const Index m = 16, n = 128;
  for (const Index k : {Index{256}, Index{512}, Index{700}, Index{1024}}) {
    const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
    const Tensor b = Tensor::random_uniform(Shape{k, n}, rng, 1.0f);
    Tensor c(Shape{m, n});
    gemm_blocked_with(a.raw(), b.raw(), c.raw(), m, k, n,
                      /*transposed_b=*/false);
    expect_rows_match_solo(a, b, c, "k=" + std::to_string(k));
  }
}

}  // namespace
}  // namespace tcb
