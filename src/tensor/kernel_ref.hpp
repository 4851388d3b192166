// Scalar reference kernels: the original straight-line, single-threaded
// implementations that the blocked/SIMD layer in gemm.cpp and ops.cpp
// replaced. They are kept (a) as the ground truth for the kernel-equivalence
// suite (tests/tensor/kernel_equivalence_test.cpp), (b) as the portable
// fallback semantics a TCB_SIMD=OFF build must reproduce, and (c) as the
// pre-optimization baseline the micro benchmarks report next to the fast
// kernels (BM_*Ref in bench/micro_kernels.cpp).
//
// Nothing in the engine's hot path calls these; their loop order is the
// specification, not an implementation detail.
#pragma once

#include "tensor/tensor.hpp"
#include "util/numeric.hpp"

// TCB_REASSOC on every reference kernel: these are the tolerance-governed
// side of the equivalence suite (compared under max_ulp_diff, not bitwise),
// so TCB_BITWISE production code may never call into them — tcb-lint's
// bitwise-closure rule enforces that.
namespace tcb::ref {

/// C = A(m,k) * B(k,n), naive i-k-j accumulate-into-C-row loop.
void matmul(const Tensor& a, const Tensor& b, Tensor& c) TCB_REASSOC;

/// C = A(m,k) * B(n,k)^T, per-element scalar dot products.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) TCB_REASSOC;

/// Row-wise softmax with the kMaskedOut fully-masked-row convention.
void softmax_rows_inplace(Tensor& t) TCB_REASSOC;

/// LayerNorm over the last dimension, two-pass mean/variance.
void layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                float eps, Tensor& y) TCB_REASSOC;

/// Elementwise ReLU.
void relu_inplace(Tensor& t) TCB_REASSOC;

}  // namespace tcb::ref
