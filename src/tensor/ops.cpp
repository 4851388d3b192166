#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tensor/simd.hpp"

namespace tcb {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Elementwise kernels go parallel only past this many floats; below it the
/// pool handoff costs more than the loop (a single decode row is ~1k).
constexpr std::size_t kElementwiseGrain = 1 << 15;

/// Row-count grain for row-wise kernels of width n.
std::size_t row_grain(Index n) {
  return static_cast<std::size_t>(4096 / (n + 1) + 1);
}

}  // namespace

void add_inplace(Tensor& y, const Tensor& x) {
  require(y.shape() == x.shape(), "add_inplace: shape mismatch");
  float* py = y.raw();
  const float* px = x.raw();
  const std::size_t n = y.data().size();
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        simd::add(py + begin, px + begin, static_cast<Index>(end - begin));
      },
      kElementwiseGrain);
}

void add_bias_inplace(Tensor& y, const Tensor& bias) {
  require(y.rank() == 2 && bias.rank() == 1, "add_bias: (m,n) + (n) required");
  require(bias.dim(0) == y.dim(1), "add_bias: width mismatch");
  add_bias_inplace(y.raw(), y.dim(0), bias);
}

void add_bias_inplace(float* py, Index m, const Tensor& bias) {
  require(bias.rank() == 1, "add_bias: rank-1 bias required");
  const Index n = bias.dim(0);
  const float* pb = bias.raw();
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          simd::add(py + i * static_cast<std::size_t>(n), pb, n);
      },
      row_grain(n));
}

void scale_inplace(Tensor& y, float s) {
  simd::scale(y.raw(), s, y.numel());
}

void softmax_rows_inplace(Tensor& t) {
  require(t.rank() == 2, "softmax_rows: rank-2 required");
  const Index m = t.dim(0), n = t.dim(1);
  if (m == 0 || n == 0) return;
  float* pt = t.raw();
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          float* row = pt + i * static_cast<std::size_t>(n);
          const float mx = simd::reduce_max(row, n);
          if (mx <= kMaskedOut / 2) {
            // Fully masked row (can only happen for padding rows): define the
            // result as zeros rather than NaN.
            for (Index j = 0; j < n; ++j) row[j] = 0.0f;
            continue;
          }
          float sum = 0.0f;
          for (Index j = 0; j < n; ++j) {
            row[j] = std::exp(row[j] - mx);
            sum += row[j];
          }
          simd::scale(row, 1.0f / sum, n);
        }
      },
      row_grain(n));
}

void layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                float eps, Tensor& y) {
  require(x.rank() == 2, "layer_norm: rank-2 input required");
  require(gamma.rank() == 1 && gamma.dim(0) == x.dim(1),
          "layer_norm: gamma shape");
  if (!(y.shape() == x.shape())) y = Tensor(x.shape());
  layer_norm(x.raw(), x.dim(0), gamma, beta, eps, y.raw());
}

void layer_norm(const float* px, Index m, const Tensor& gamma,
                const Tensor& beta, float eps, float* py) {
  require(gamma.rank() == 1, "layer_norm: gamma shape");
  const Index d = gamma.dim(0);
  require(beta.rank() == 1 && beta.dim(0) == d, "layer_norm: beta shape");
  const float* pg = gamma.raw();
  const float* pb = beta.raw();
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const float* row = px + i * static_cast<std::size_t>(d);
          float* out = py + i * static_cast<std::size_t>(d);
          const float mean = simd::reduce_add(row, d) / static_cast<float>(d);
          const float var =
              simd::reduce_sq_dev(row, mean, d) / static_cast<float>(d);
          const float inv = 1.0f / std::sqrt(var + eps);
          simd::normalize(row, pg, pb, mean, inv, out, d);
        }
      },
      row_grain(d));
}

void relu_inplace(Tensor& t) {
  float* pt = t.raw();
  parallel_for(
      t.data().size(),
      [&](std::size_t begin, std::size_t end) {
        simd::relu(pt + begin, static_cast<Index>(end - begin));
      },
      kElementwiseGrain);
}

std::vector<Index> argmax_rows(const Tensor& t) {
  require(t.rank() == 2, "argmax_rows: rank-2 required");
  const Index m = t.dim(0), n = t.dim(1);
  require(n > 0, "argmax_rows: empty rows");
  std::vector<Index> out(static_cast<std::size_t>(m));
  for (Index i = 0; i < m; ++i) {
    const float* row = t.row(i);
    Index best = 0;
    for (Index j = 1; j < n; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace tcb
