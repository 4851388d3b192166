#include "nn/linear.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace tcb {

Linear::Linear(Index in, Index out, Rng& rng)
    : weight_(Tensor::random_uniform(
          Shape{in, out}, rng, 1.0f / std::sqrt(static_cast<float>(in)))),
      bias_(Shape{out}) {}

Tensor Linear::forward(const Tensor& x) const {
  Tensor y;
  forward(x, y);
  return y;
}

void Linear::forward(const Tensor& x, Tensor& y) const {
  matmul(x, weight_, y);
  add_bias_inplace(y, bias_);
}

void Linear::forward(const float* x, Index m, float* y) const {
  matmul(x, weight_.raw(), y, m, in_features(), out_features());
  add_bias_inplace(y, m, bias_);
}

}  // namespace tcb
