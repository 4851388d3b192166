#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tcb {
namespace {

Tensor make(Shape shape, std::initializer_list<float> values) {
  Tensor t(std::move(shape));
  std::size_t i = 0;
  for (const float v : values) t.data()[i++] = v;
  return t;
}

TEST(MatmulTest, KnownProduct) {
  const Tensor a = make(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = make(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatmulTest, IdentityIsNoop) {
  Rng rng(3);
  const Tensor a = Tensor::random_uniform(Shape{5, 5}, rng, 1.0f);
  Tensor eye(Shape{5, 5});
  for (Index i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  EXPECT_EQ(max_abs_diff(matmul(a, eye), a), 0.0f);
}

TEST(MatmulTest, DimensionMismatchThrows) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{4, 2});
  Tensor c;
  EXPECT_THROW(matmul(a, b, c), std::invalid_argument);
}

TEST(MatmulTest, LargeMatmulMatchesNaiveReference) {
  Rng rng(7);
  const Index m = 37, k = 53, n = 29;
  const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{k, n}, rng, 1.0f);
  const Tensor c = matmul(a, b);
  for (Index i = 0; i < m; i += 7) {
    for (Index j = 0; j < n; j += 5) {
      float ref = 0.0f;
      for (Index p = 0; p < k; ++p) ref += a.at(i, p) * b.at(p, j);
      EXPECT_NEAR(c.at(i, j), ref, 1e-4f);
    }
  }
}

TEST(MatmulNtTest, MatchesExplicitTranspose) {
  Rng rng(11);
  const Tensor a = Tensor::random_uniform(Shape{6, 8}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{5, 8}, rng, 1.0f);
  Tensor bt(Shape{8, 5});
  for (Index i = 0; i < 5; ++i)
    for (Index j = 0; j < 8; ++j) bt.at(j, i) = b.at(i, j);
  EXPECT_LT(max_abs_diff(matmul_nt(a, b), matmul(a, bt)), 1e-5f);
}

TEST(AddTest, InplaceAdd) {
  Tensor y = make(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor x = make(Shape{2, 2}, {10, 20, 30, 40});
  add_inplace(y, x);
  EXPECT_FLOAT_EQ(y.at(1, 1), 44.0f);
  Tensor wrong(Shape{4});
  EXPECT_THROW(add_inplace(y, wrong), std::invalid_argument);
}

TEST(AddBiasTest, BroadcastsPerRow) {
  Tensor y = make(Shape{2, 3}, {0, 0, 0, 1, 1, 1});
  const Tensor bias = make(Shape{3}, {1, 2, 3});
  add_bias_inplace(y, bias);
  EXPECT_FLOAT_EQ(y.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 2.0f);
}

TEST(ScaleTest, MultipliesEverything) {
  Tensor y = make(Shape{2}, {2, -4});
  scale_inplace(y, 0.5f);
  EXPECT_FLOAT_EQ(y.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.data()[1], -2.0f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(13);
  Tensor t = Tensor::random_uniform(Shape{8, 16}, rng, 3.0f);
  softmax_rows_inplace(t);
  for (Index i = 0; i < 8; ++i) {
    float sum = 0.0f;
    for (Index j = 0; j < 16; ++j) {
      EXPECT_GE(t.at(i, j), 0.0f);
      sum += t.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, MaskedEntriesBecomeExactlyZero) {
  Tensor t = make(Shape{1, 4}, {1.0f, kMaskedOut, 2.0f, kMaskedOut});
  softmax_rows_inplace(t);
  EXPECT_EQ(t.at(0, 1), 0.0f);
  EXPECT_EQ(t.at(0, 3), 0.0f);
  EXPECT_NEAR(t.at(0, 0) + t.at(0, 2), 1.0f, 1e-6f);
  EXPECT_GT(t.at(0, 2), t.at(0, 0));
}

TEST(SoftmaxTest, FullyMaskedRowIsAllZeros) {
  Tensor t = Tensor::full(Shape{2, 3}, kMaskedOut);
  softmax_rows_inplace(t);
  for (const float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(SoftmaxTest, ShiftInvariance) {
  Tensor a = make(Shape{1, 3}, {1, 2, 3});
  Tensor b = make(Shape{1, 3}, {101, 102, 103});
  softmax_rows_inplace(a);
  softmax_rows_inplace(b);
  EXPECT_LT(max_abs_diff(a, b), 1e-6f);
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(17);
  const Tensor x = Tensor::random_uniform(Shape{4, 32}, rng, 2.0f);
  const Tensor gamma = Tensor::full(Shape{32}, 1.0f);
  const Tensor beta(Shape{32});
  Tensor y;
  layer_norm(x, gamma, beta, 1e-5f, y);
  for (Index i = 0; i < 4; ++i) {
    float mean = 0.0f, var = 0.0f;
    for (Index j = 0; j < 32; ++j) mean += y.at(i, j);
    mean /= 32.0f;
    for (Index j = 0; j < 32; ++j) {
      const float d = y.at(i, j) - mean;
      var += d * d;
    }
    var /= 32.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(LayerNormTest, GammaBetaApplied) {
  const Tensor x = make(Shape{1, 2}, {-1, 1});
  const Tensor gamma = make(Shape{2}, {2, 2});
  const Tensor beta = make(Shape{2}, {5, 5});
  Tensor y;
  layer_norm(x, gamma, beta, 1e-9f, y);
  EXPECT_NEAR(y.at(0, 0), 3.0f, 1e-3f);  // -1 normalized -> -1, *2 + 5
  EXPECT_NEAR(y.at(0, 1), 7.0f, 1e-3f);
}

TEST(ActivationTest, Relu) {
  Tensor t = make(Shape{4}, {-1, 0, 2, -3});
  relu_inplace(t);
  EXPECT_FLOAT_EQ(t.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(t.data()[2], 2.0f);
  EXPECT_FLOAT_EQ(t.data()[3], 0.0f);
}

TEST(ArgmaxTest, PicksLargestPerRow) {
  const Tensor t = make(Shape{2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(ArgmaxTest, FirstWinnerOnTies) {
  const Tensor t = make(Shape{1, 3}, {7, 7, 7});
  EXPECT_EQ(argmax_rows(t)[0], 0);
}

}  // namespace
}  // namespace tcb
