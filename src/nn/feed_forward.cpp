#include "nn/feed_forward.hpp"

#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace tcb {

FeedForward::FeedForward(const ModelConfig& cfg, Rng& rng)
    : lin1_(cfg.d_model, cfg.d_ff, rng), lin2_(cfg.d_ff, cfg.d_model, rng) {}

Tensor FeedForward::forward(const Tensor& x) const {
  // Hidden-activation scratch reused across layers and forwards: the d_ff
  // expansion is the largest intermediate in the encoder, and matmul's
  // out-param path keeps same-shape storage, so a warmed steady state
  // allocates nothing here.
  static thread_local Tensor h;
  lin1_.forward(x, h);
  relu_inplace(h);
  return lin2_.forward(h);
}

void FeedForward::forward(const float* x, Index m, float* hidden,
                          float* y) const {
  lin1_.forward(x, m, hidden);
  simd::relu(hidden, m * lin1_.out_features());
  lin2_.forward(hidden, m, y);
}

}  // namespace tcb
