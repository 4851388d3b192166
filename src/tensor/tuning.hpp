// Cache-geometry detection and the GEMM blocking autotuner.
//
// The blocked GEMM (gemm.cpp) used to hard-code kc = 256 and one MR x NR
// register tile per ISA. Those numbers were chosen for one machine; on a
// part with a bigger L2 a deeper kc amortizes packing better, and tall/wide
// output shapes favor different register tiles. This header exposes:
//
//   * cache_geometry()   — L1d/L2 sizes read from sysfs (with conservative
//                          fallbacks), the same numbers BENCH_kernels.json
//                          records in the google-benchmark context.
//   * select_blocking()  — per-shape-class blocking choice. Candidates are
//                          derived from the cache sizes (kc such that the
//                          active panels stay resident) crossed with the
//                          ISA's microkernel variants, trial-timed once per
//                          process, and published through an atomic so the
//                          steady state is one relaxed load.
//   * gemm_autotune_all()— eager tuning for benches (so the cost never lands
//                          in a measured region) plus optional persistence
//                          via TCB_TUNE_CACHE=<file>.
//
// Determinism: whatever candidate is picked, gemm.cpp keeps one ascending-k
// FMA chain per element over the whole depth (later k-blocks continue the
// chain from the C tile), so results are independent of the tile and of
// kc for every k — the tuner changes speed, never bits — and a row of C is
// the same alone or batched (the concat-equivalence contract). Tuning defaults ON in optimized builds (NDEBUG) and OFF in
// debug/sanitizer builds; TCB_GEMM_AUTOTUNE=1/0 overrides either way.
#pragma once

#include <cstddef>
#include <string>

#include "tensor/tensor.hpp"
#include "util/numeric.hpp"

namespace tcb {

struct CacheGeometry {
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  bool detected = false;  ///< false = the conservative fallback above
  [[nodiscard]] std::string to_string() const;
};

/// The host's cache geometry, detected once per process.
[[nodiscard]] const CacheGeometry& cache_geometry();

/// One GEMM blocking configuration: packed depth kc plus the register
/// microkernel (an MR x NR tile) that consumes the packed panels.
struct GemmBlocking {
  Index kc = 256;
  Index mr = 0;
  Index nr = 0;
  int kernel = 0;   ///< index into gemm.cpp's microkernel table
  std::string tag;  ///< e.g. "avx512_8x32/kc256"
};

/// Output-aspect classes tuned separately: the register tile that wins on a
/// square product is usually not the one that wins when m >> n (activation
/// GEMMs: many token rows into a narrow head) or m << n (d_ff expansions of
/// short batches).
enum class GemmShapeClass : int { kSquare = 0, kTall = 1, kWide = 2 };
inline constexpr int kGemmShapeClassCount = 3;
[[nodiscard]] const char* gemm_shape_class_name(GemmShapeClass cls) noexcept;

/// Shape class of an (m,k)x(k,n) product by output aspect ratio m:n.
[[nodiscard]] GemmShapeClass classify_gemm(Index m, Index n) noexcept;

/// The blocking for `cls`. The first call per class may tune (or read the
/// TCB_TUNE_CACHE file); afterwards the published choice is constant for
/// the life of the process. The reference points into a process-lifetime
/// candidate table (static storage).
[[nodiscard]] const GemmBlocking& select_blocking(GemmShapeClass cls);

/// Tunes every shape class now and, if TCB_TUNE_CACHE names a file, writes
/// the selections there for future processes on the same machine.
void gemm_autotune_all();

/// One-line summary of geometry + per-class selections for bench metadata,
/// e.g. "l1d=48KiB l2=2MiB square=avx512_8x32/kc256 ... (autotuned)".
/// Forces selection of every class (tuning if enabled and not yet done).
[[nodiscard]] std::string gemm_tuning_summary();

// --- gemm.cpp internals used by the tuner ---------------------------------

/// Microkernel variants compiled for the active ISA (table in gemm.cpp).
struct GemmKernelInfo {
  Index mr = 0;
  Index nr = 0;
  const char* tag = "";
};
[[nodiscard]] std::size_t gemm_kernel_count() noexcept;
[[nodiscard]] GemmKernelInfo gemm_kernel_info(std::size_t i) noexcept;

/// The pre-autotuner blocking: the ISA-default microkernel at kc = 256.
[[nodiscard]] GemmBlocking gemm_default_blocking();

/// Runs C(m,n) = A(m,k) * B once through the blocked path with an explicit
/// blocking — the tuner's trial entry point. B is (k,n) row-major, or (n,k)
/// when `transposed_b`.
/// TCB_BITWISE: every blocking keeps the per-element ascending-k FMA chain
/// over the whole depth, so the result is tile- and kc-independent.
void gemm_blocked_with(const float* a, const float* b, float* c, Index m,
                       Index k, Index n, bool transposed_b,
                       const GemmBlocking& blk) TCB_BITWISE;

/// Test-only: forgets the published per-class selections so the next
/// select_blocking() re-resolves from scratch (TCB_TUNE_CACHE file, tuning,
/// or the default). Not for production use — a concurrent GEMM would race
/// the republish. Lets the TCB_TUNE_CACHE round-trip test exercise
/// write -> reload in one process.
void gemm_tuning_reset_for_test();

}  // namespace tcb
