// Transformer encoder stack (post-LayerNorm, as in Vaswani et al.).
#pragma once

#include <span>

#include "nn/attention.hpp"
#include "nn/feed_forward.hpp"
#include "nn/model_config.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

/// Fewest rows an encoder region hands one chunk, so a 20-50 token splice
/// still splits parallelism() ways. BM_Splice read 2 and 4 the same; 8
/// left a 20-token splice 3 chunks and made it ~25% slower (DESIGN.md
/// §15.1).
inline constexpr Index kEncoderChunkRows = 4;

/// One encoder layer's weights: self-attention, FFN and the two LayerNorms.
/// Constructed in the order the model's weight RNG expects (attention, then
/// FFN).
class EncoderLayer {
 public:
  EncoderLayer(const ModelConfig& cfg, Rng& rng);

  [[nodiscard]] const MultiHeadAttention& self_attn() const noexcept
      TCB_LIFETIME_BOUND {
    return self_attn_;
  }
  [[nodiscard]] const FeedForward& ffn() const noexcept TCB_LIFETIME_BOUND {
    return ffn_;
  }
  /// LayerNorm parameters; `which` is 0 (after attention) or 1 (after FFN).
  [[nodiscard]] const Tensor& ln_gamma(int which) const TCB_LIFETIME_BOUND {
    return which == 0 ? ln1_gamma_ : ln2_gamma_;
  }
  [[nodiscard]] const Tensor& ln_beta(int which) const TCB_LIFETIME_BOUND {
    return which == 0 ? ln1_beta_ : ln2_beta_;
  }
  [[nodiscard]] float eps() const noexcept { return eps_; }

 private:
  MultiHeadAttention self_attn_;
  FeedForward ffn_;
  Tensor ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  float eps_;
};

/// Runs `layers` over x — (rows * width, d_model) laid out by `plan`,
/// embeddings + PE on entry, encoded states on return — in place, as
/// row-split parallel regions: per layer, the Q/K/V projections over row
/// chunks, the attention kernel over its (row, span, head) tasks, then
/// W^O + residual + LN1 + FFN + residual + LN2 over row chunks, fused with
/// the next layer's Q/K/V. Every kernel keeps its per-row chain, so the
/// result does not depend on how rows are split (DESIGN.md §8.2), and each
/// row is bitwise what MultiHeadAttention::encoder_forward followed by the
/// Tensor-form residual, LayerNorm and FFN ops produces.
void encode_in_place(std::span<const EncoderLayer> layers, Tensor& x,
                     const BatchPlan& plan, Col width, AttentionMode mode,
                     MaskPolicy mask) TCB_BITWISE;

}  // namespace tcb
