// Affine layer y = xW + b.
#pragma once

#include "tensor/tensor.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

class Linear {
 public:
  Linear() = default;

  /// Weights U[-scale, scale] with scale = 1/sqrt(in); bias zero.
  Linear(Index in, Index out, Rng& rng);

  [[nodiscard]] Index in_features() const noexcept { return weight_.rank() ? weight_.dim(0) : 0; }
  [[nodiscard]] Index out_features() const noexcept { return weight_.rank() ? weight_.dim(1) : 0; }

  /// x: (m, in) -> (m, out). Row r of the output depends only on row r of
  /// x — bitwise-identical whatever else is in the batch.
  [[nodiscard]] Tensor forward(const Tensor& x) const TCB_BITWISE;
  void forward(const Tensor& x, Tensor& y) const TCB_BITWISE;
  /// Raw-pointer form over m dense rows: x (m, in) -> y (m, out), for
  /// activations held in a Workspace arena. Same per-row numerics.
  void forward(const float* x, Index m, float* y) const TCB_BITWISE;

  [[nodiscard]] const Tensor& weight() const noexcept TCB_LIFETIME_BOUND {
    return weight_;
  }
  [[nodiscard]] const Tensor& bias() const noexcept TCB_LIFETIME_BOUND {
    return bias_;
  }

 private:
  Tensor weight_;  ///< (in, out)
  Tensor bias_;    ///< (out)
};

}  // namespace tcb
