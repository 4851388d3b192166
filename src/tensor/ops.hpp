// Tensor kernels for the transformer engine.
//
// All kernels are multithreaded via the global ThreadPool with grain sizes
// chosen so small problems (single decode step) stay single-threaded, and
// vectorized through src/tensor/simd.hpp (AVX-512 / AVX2 / NEON, scalar when
// TCB_SIMD=OFF). The GEMM (src/tensor/gemm.cpp) is cache-blocked with packed
// operand panels and a register-tiled microkernel; short matrices take a
// register-tiled path that reads both operands in place instead. The
// original naive loops survive as tcb::ref::* (tensor/kernel_ref.hpp) and
// the equivalence suite pins the fast kernels to them.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"
#include "util/numeric.hpp"

namespace tcb {

/// Additive mask value for "attention forbidden". Chosen so exp(x - max)
/// underflows to exactly 0.0f, making masked positions contribute nothing —
/// this is what makes concat-batched inference bitwise-comparable with
/// per-request inference.
inline constexpr float kMaskedOut = -1e30f;

/// C = A(m,k) * B(k,n). Shapes are validated; C is resized.
/// TCB_BITWISE: output row i is a fixed ascending-k chain over row i of A —
/// identical whatever other rows ride in the same call.
void matmul(const Tensor& a, const Tensor& b, Tensor& c) TCB_BITWISE;
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b) TCB_BITWISE;

/// Rows from which matmul takes the packed, cache-blocked path (when n and k
/// are large enough for full panels); shorter products — every decode slice
/// and splice encode — run the in-place register-tiled path. A fixed
/// constant, picked from bench/micro_kernels' BM_MatmulDecode sweep.
inline constexpr Index kGemmBlockedMinRows = 64;

/// c(m,n) = a(m,k) * b through the packed, cache-blocked path whatever the
/// shape, so tests can compare it with the routed matmul. b is (k,n)
/// row-major, or (n,k) when `transposed_b`.
/// TCB_BITWISE: the same per-element ascending-k FMA chain over the whole
/// depth as matmul's tiled path, continued across every k-block.
void gemm_blocked_with(const float* a, const float* b, float* c, Index m,
                       Index k, Index n, bool transposed_b) TCB_BITWISE;

/// Raw-pointer form for rows held in scratch memory (a Workspace arena):
/// c(m,n) = a(m,k) * b(k,n), all dense row-major, c fully overwritten. Same
/// routing and per-row numerical contract as the Tensor form.
void matmul(const float* a, const float* b, float* c, Index m, Index k,
            Index n) TCB_BITWISE;

/// C = A(m,k) * B(n,k)^T, i.e. pairwise dot products. Used for Q·K^T where K
/// is stored row-major per position.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) TCB_BITWISE;
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b) TCB_BITWISE;

/// Rows per parallel chunk for an (m,k)x(k,n) GEMM. Balances a work floor
/// (enough multiply-adds per chunk to pay for the pool handoff) against a
/// fan-out ceiling derived from the global pool's parallelism (at most a few
/// chunks per worker). Exposed for the kernel tests.
[[nodiscard]] std::size_t gemm_grain(Index m, Index n, Index k);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x) TCB_BITWISE;

/// Adds a length-n bias vector to every row of a (m,n) tensor.
void add_bias_inplace(Tensor& y, const Tensor& bias) TCB_BITWISE;
/// Raw-pointer form: y holds m dense rows of bias.dim(0) floats.
void add_bias_inplace(float* y, Index m, const Tensor& bias) TCB_BITWISE;

/// y *= s.
void scale_inplace(Tensor& y, float s) TCB_BITWISE;

/// Row-wise softmax over the last dimension of a rank-2 tensor, in place.
/// A row whose maximum is <= kMaskedOut / 2 (i.e. fully masked) becomes all
/// zeros instead of NaN.
void softmax_rows_inplace(Tensor& t) TCB_BITWISE;

/// LayerNorm over the last dimension: y = (x - mu) / sqrt(var + eps) * gamma
/// + beta, for each row of a (m,d) tensor.
void layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                float eps, Tensor& y) TCB_BITWISE;
/// Raw-pointer form: x and y hold m dense rows of gamma.dim(0) floats.
void layer_norm(const float* x, Index m, const Tensor& gamma,
                const Tensor& beta, float eps, float* y) TCB_BITWISE;

/// Elementwise ReLU in place.
void relu_inplace(Tensor& t) TCB_BITWISE;

/// argmax over the last dimension of a (m,n) tensor; returns m indices.
[[nodiscard]] std::vector<Index> argmax_rows(const Tensor& t);

}  // namespace tcb
