// Multi-head self-attention with the two concat-aware execution paths the
// paper contrasts:
//
//   * kPureConcat (paper §4.1, Fig. 6): the full width x width score matrix
//     of every row is computed, the off-(block-)diagonal entries are masked
//     to -inf (Eq. 5-6), then softmax and the value multiplication run over
//     the full matrix. The masked work is the redundancy the paper measures.
//   * kSlotted (paper §4.2, Fig. 7): each row is split into slots of length
//     z; scores/softmax/value products are computed per slot only, and the
//     slots of a batch run in parallel on the thread pool.
//
// Both paths produce the same values for every real token (masked entries
// contribute exactly 0 after softmax); the slotted path simply never touches
// the inter-slot blocks. That equivalence is property-tested.
#pragma once

#include "batching/batch_plan.hpp"
#include "nn/linear.hpp"
#include "nn/model_config.hpp"
#include "tensor/tensor.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

enum class AttentionMode : std::uint8_t {
  kPureConcat,
  kSlotted,
};

/// How the attention mask is derived. kSegment is TCB's customized mask;
/// kRowShared is the uncustomized default (whole row attends to itself),
/// kept so tests and examples can demonstrate that concatenation without the
/// mask produces wrong results.
enum class MaskPolicy : std::uint8_t {
  kSegment,
  kRowShared,
};

class MultiHeadAttention {
 public:
  MultiHeadAttention() = default;
  MultiHeadAttention(const ModelConfig& cfg, Rng& rng);

  /// Bidirectional (encoder) self-attention over a batch laid out by `plan`.
  /// x is (rows * width, d_model) with `width` = materialized tensor width
  /// (strong-typed: a row count passed here is a compile error).
  /// Returns a tensor of the same shape (already through the output
  /// projection W^O).
  ///
  /// Executes as a flash-style tiled kernel (DESIGN.md §13): scores exist
  /// one kTile-wide strip at a time with an online softmax (running max /
  /// running sum, rescaled accumulator), never as a q_len x k_len matrix.
  /// Equivalent to encoder_forward_reference under float tolerance; the
  /// equivalence suite pins both that and the bitwise concat-vs-single
  /// invariance.
  /// Bitwise concat-invariant: a request's rows depend only on its own
  /// segment span (the span-relative kTile tiles), never on batch shape.
  [[nodiscard]] Tensor encoder_forward(const Tensor& x, const BatchPlan& plan,
                                       Col width, AttentionMode mode,
                                       MaskPolicy mask = MaskPolicy::kSegment)
      const TCB_BITWISE;

  /// The kernel encoder_forward runs between its projections: the per-head
  /// attention outputs (before W^O) of already-projected q, k and v, each
  /// (rows * width, d_model) dense, into `heads` (resized to that shape;
  /// padding queries and columns no task covers are zeros). One
  /// parallel_for over the (row, span, head) tasks. Seq2SeqModel::encode
  /// calls it between its row-split projection regions.
  void attend(const float* q, const float* k, const float* v,
              const BatchPlan& plan, Col width, AttentionMode mode,
              MaskPolicy mask, Tensor& heads) const TCB_BITWISE;

  /// The pre-optimization execution: materializes every task's full w x w
  /// score matrix, masks it in a second sweep, then runs softmax and the
  /// value product with scalar loops (paper Fig. 6 literally). Kept as the
  /// reference the flash kernel is differentially tested against, and as the
  /// baseline BM_AttentionPureRef measures.
  /// TCB_REASSOC: the scalar loops here are the tolerance-governed oracle
  /// the fast kernels are ULP-compared against, not part of the bitwise
  /// closure.
  [[nodiscard]] Tensor encoder_forward_reference(
      const Tensor& x, const BatchPlan& plan, Col width, AttentionMode mode,
      MaskPolicy mask = MaskPolicy::kSegment) const TCB_REASSOC;

  [[nodiscard]] Index n_heads() const noexcept { return n_heads_; }
  [[nodiscard]] Index head_dim() const noexcept { return head_dim_; }

  /// Projection weights, exposed for the step-wise decoder which drives the
  /// same parameters through cached K/V.
  [[nodiscard]] const Linear& wq() const noexcept TCB_LIFETIME_BOUND {
    return wq_;
  }
  [[nodiscard]] const Linear& wk() const noexcept TCB_LIFETIME_BOUND {
    return wk_;
  }
  [[nodiscard]] const Linear& wv() const noexcept TCB_LIFETIME_BOUND {
    return wv_;
  }
  [[nodiscard]] const Linear& wo() const noexcept TCB_LIFETIME_BOUND {
    return wo_;
  }

 private:
  Linear wq_, wk_, wv_, wo_;
  Index n_heads_ = 0;
  Index head_dim_ = 0;
};

/// Counts the score-matrix entries each mode computes for `plan` (per head,
/// per layer). The slotted/pure ratio is the redundancy removed — used by
/// the analytical cost model and asserted in tests.
[[nodiscard]] Index score_entries(const BatchPlan& plan, Col width,
                                  AttentionMode mode);

}  // namespace tcb
