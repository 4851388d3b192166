// Position-wise feed-forward network: Linear -> ReLU -> Linear.
#pragma once

#include "nn/linear.hpp"
#include "nn/model_config.hpp"
#include "util/numeric.hpp"

namespace tcb {

class FeedForward {
 public:
  FeedForward() = default;
  FeedForward(const ModelConfig& cfg, Rng& rng);

  /// Inner width (d_ff): the row length of forward()'s `hidden` scratch.
  [[nodiscard]] Index hidden_features() const noexcept {
    return lin1_.out_features();
  }

  /// x: (m, d_model) -> (m, d_model). Purely row-wise: concat-invariant.
  [[nodiscard]] Tensor forward(const Tensor& x) const TCB_BITWISE;
  /// Raw-pointer form over m dense rows: x (m, d_model) -> y (m, d_model),
  /// with `hidden` (m, d_ff) caller scratch. Same per-row numerics.
  void forward(const float* x, Index m, float* hidden, float* y) const
      TCB_BITWISE;

 private:
  Linear lin1_, lin2_;
};

}  // namespace tcb
