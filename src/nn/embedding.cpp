#include "nn/embedding.hpp"

#include <cstring>
#include <stdexcept>

namespace tcb {

Embedding::Embedding(Index vocab, Index d_model, Rng& rng)
    : table_(Tensor::random_uniform(Shape{vocab, d_model}, rng, 0.1f)) {}

Tensor Embedding::lookup(std::span<const Index> ids) const {
  const Index d = d_model();
  Tensor out(Shape{static_cast<Index>(ids.size()), d});
  for (std::size_t i = 0; i < ids.size(); ++i)
    std::memcpy(out.raw() + static_cast<std::size_t>(i) * d, row(ids[i]),
                static_cast<std::size_t>(d) * sizeof(float));
  return out;
}

const float* Embedding::row(Index id) const {
  if (id < 0 || id >= vocab())
    throw std::out_of_range("Embedding::lookup: token id " +
                            std::to_string(id) + " outside vocab");
  return table_.row(id);
}

}  // namespace tcb
