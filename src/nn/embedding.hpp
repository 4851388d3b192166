// Token-id -> feature-vector lookup table.
#pragma once

#include <span>

#include "tensor/tensor.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

class Embedding {
 public:
  Embedding() = default;
  Embedding(Index vocab, Index d_model, Rng& rng);

  [[nodiscard]] Index vocab() const noexcept { return table_.rank() ? table_.dim(0) : 0; }
  [[nodiscard]] Index d_model() const noexcept { return table_.rank() ? table_.dim(1) : 0; }

  /// ids (n) -> embeddings (n, d_model). Out-of-range ids throw.
  /// A pure per-id copy: trivially concat-invariant.
  [[nodiscard]] Tensor lookup(std::span<const Index> ids) const TCB_BITWISE;

  /// The d_model-float embedding row of one id. Out-of-range ids throw.
  [[nodiscard]] const float* row(Index id) const TCB_BITWISE TCB_LIFETIME_BOUND;

 private:
  Tensor table_;  ///< (vocab, d_model)
};

}  // namespace tcb
