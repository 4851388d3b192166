#include "nn/encoder.hpp"

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

/// The buffers an encoder layer shares across row chunks: the Q/K/V
/// projections (a query row reads the K/V rows of its whole segment) and
/// the head outputs. Kept per calling thread and reused, so a warmed encode
/// allocates nothing for them.
struct EncodeScratch {
  Tensor q, k, v, heads;
};

void ensure_shape(Tensor& t, const Shape& shape) {
  if (!(t.shape() == shape)) t = Tensor(shape);
}

}  // namespace

EncoderLayer::EncoderLayer(const ModelConfig& cfg, Rng& rng)
    : self_attn_(cfg, rng),
      ffn_(cfg, rng),
      ln1_gamma_(Shape{cfg.d_model}, 1.0f),
      ln1_beta_(Shape{cfg.d_model}, 0.0f),
      ln2_gamma_(Shape{cfg.d_model}, 1.0f),
      ln2_beta_(Shape{cfg.d_model}, 0.0f),
      eps_(cfg.layer_norm_eps) {}

void encode_in_place(std::span<const EncoderLayer> layers, Tensor& x,
                     const BatchPlan& plan, Col width, AttentionMode mode,
                     MaskPolicy mask) {
  if (layers.empty()) return;
  const Index d = layers.front().self_attn().n_heads() *
                  layers.front().self_attn().head_dim();
  const Index n = static_cast<Index>(plan.rows.size()) * width.value();
  TCB_CHECK(x.rank() == 2 && x.dim(0) == n && x.dim(1) == d,
            "encode_in_place: x shape does not match the plan");
  const Index d_ff = layers.front().ffn().hidden_features();

  static thread_local EncodeScratch scratch;
  const Shape shape{n, d};
  ensure_shape(scratch.q, shape);
  ensure_shape(scratch.k, shape);
  ensure_shape(scratch.v, shape);
  // Bind every pointer here, on the calling thread: inside a region lambda
  // `scratch` would name the executing worker's own (empty) copy.
  float* px = x.raw();
  float* pq = scratch.q.raw();
  float* pk = scratch.k.raw();
  float* pv = scratch.v.raw();
  Tensor& heads = scratch.heads;
  const auto rows_of = [](std::size_t b, std::size_t e) {
    return static_cast<Index>(e - b);
  };
  const auto at = [d](auto* base, std::size_t row) {
    return base + row * static_cast<std::size_t>(d);
  };
  const auto project_qkv = [&](const EncoderLayer& layer, std::size_t b,
                               std::size_t e) {
    const MultiHeadAttention& attn = layer.self_attn();
    attn.wq().forward(at(px, b), rows_of(b, e), at(pq, b));
    attn.wk().forward(at(px, b), rows_of(b, e), at(pk, b));
    attn.wv().forward(at(px, b), rows_of(b, e), at(pv, b));
  };
  const auto rows = static_cast<std::size_t>(n);
  const auto grain = static_cast<std::size_t>(kEncoderChunkRows);

  parallel_for(
      rows,
      [&](std::size_t b, std::size_t e) { project_qkv(layers.front(), b, e); },
      grain);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const EncoderLayer& layer = layers[l];
    layer.self_attn().attend(pq, pk, pv, plan, width, mode, mask, heads);
    const float* pheads = heads.raw();
    const EncoderLayer* next = l + 1 < layers.size() ? &layers[l + 1] : nullptr;
    parallel_for(
        rows,
        [&](std::size_t b, std::size_t e) {
          const Index m = rows_of(b, e);
          const auto md = static_cast<std::size_t>(m * d);
          WorkspaceScope scope;
          float* y = scope.alloc(md);
          float* h = scope.alloc(md);
          float* hidden = scope.alloc(static_cast<std::size_t>(m * d_ff));
          float* xr = at(px, b);
          // x = LN2(FFN(h) + h) with h = LN1(W^O heads + x), row by row.
          layer.self_attn().wo().forward(at(pheads, b), m, y);
          simd::add(y, xr, m * d);
          layer_norm(y, m, layer.ln_gamma(0), layer.ln_beta(0), layer.eps(),
                     h);
          layer.ffn().forward(h, m, hidden, y);
          simd::add(y, h, m * d);
          layer_norm(y, m, layer.ln_gamma(1), layer.ln_beta(1), layer.eps(),
                     xr);
          if (next != nullptr) project_qkv(*next, b, e);
        },
        grain);
  }
}

}  // namespace tcb
