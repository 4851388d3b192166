#include "tensor/kernel_ref.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace tcb::ref {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "ref::matmul: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "ref::matmul: inner dimension mismatch");
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});

  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (Index i = 0; i < m; ++i) {
    float* crow = pc + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (Index j = 0; j < n; ++j) crow[j] = 0.0f;
    const float* arow = pa + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
    for (Index p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = pb + static_cast<std::size_t>(p) * static_cast<std::size_t>(n);
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2,
          "ref::matmul_nt: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "ref::matmul_nt: inner dimension mismatch");
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});

  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (Index i = 0; i < m; ++i) {
    const float* arow = pa + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
    float* crow = pc + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (Index j = 0; j < n; ++j) {
      const float* brow = pb + static_cast<std::size_t>(j) * static_cast<std::size_t>(k);
      float acc = 0.0f;
      for (Index p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void softmax_rows_inplace(Tensor& t) {
  require(t.rank() == 2, "ref::softmax_rows: rank-2 required");
  const Index m = t.dim(0), n = t.dim(1);
  float* pt = t.raw();
  for (Index i = 0; i < m; ++i) {
    float* row = pt + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    float mx = row[0];
    for (Index j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    if (mx <= kMaskedOut / 2) {
      for (Index j = 0; j < n; ++j) row[j] = 0.0f;
      continue;
    }
    float sum = 0.0f;
    for (Index j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (Index j = 0; j < n; ++j) row[j] *= inv;
  }
}

void layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                float eps, Tensor& y) {
  require(x.rank() == 2, "ref::layer_norm: rank-2 input required");
  const Index m = x.dim(0), d = x.dim(1);
  require(gamma.rank() == 1 && gamma.dim(0) == d, "ref::layer_norm: gamma shape");
  require(beta.rank() == 1 && beta.dim(0) == d, "ref::layer_norm: beta shape");
  if (!(y.shape() == x.shape())) y = Tensor(x.shape());

  const float* px = x.raw();
  const float* pg = gamma.raw();
  const float* pb = beta.raw();
  float* py = y.raw();
  for (Index i = 0; i < m; ++i) {
    const float* row = px + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
    float* out = py + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
    float mean = 0.0f;
    for (Index j = 0; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (Index j = 0; j < d; ++j) {
      const float delta = row[j] - mean;
      var += delta * delta;
    }
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (Index j = 0; j < d; ++j) out[j] = (row[j] - mean) * inv * pg[j] + pb[j];
  }
}

void relu_inplace(Tensor& t) {
  for (float& v : t.data())
    if (v < 0.0f) v = 0.0f;
}

}  // namespace tcb::ref
