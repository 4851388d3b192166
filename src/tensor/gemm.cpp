// Cache-blocked, register-tiled GEMM (matmul / matmul_nt).
//
// Layout follows the classic GotoBLAS/BLIS decomposition, sized for the
// shapes this engine actually runs (m up to a few thousand, k/n up to a few
// thousand):
//
//   for each kc-block of K (blk.kc depths):           L2-resident B slab
//     pack B[kc, n] into NR-column panels (Bp)
//     parallel over MR-row panels of A:               one chunk per worker(s)
//       pack A[mr, kc] into a k-major panel (Ap)
//       for each NR-column panel: microkernel         registers only
//
// The microkernel computes an MR x NR tile held entirely in vector
// registers. Each ISA compiles a small table of template-instantiated
// variants (e.g. AVX-512: 8x32 / 12x32 / 8x16 / 4x64); which variant runs —
// and how deep kc is — comes from tensor/tuning.hpp, which derives the
// candidates from the detected L1/L2 geometry and trial-times them once per
// process. Panels are zero-padded to full MR/NR so the microkernel has no
// edge branches; the write-back clips to the valid region.
//
// Scratch (the packed Ap/Bp panels and the C tile) lives in the per-thread
// Workspace arena (tensor/workspace.hpp) instead of per-call std::vectors:
// after the first call warms the arenas, repeated GEMMs perform zero heap
// allocations.
//
// Numerical contract: every C element of matmul is ONE fused-multiply-add
// chain in ascending k order over the whole depth, starting from 0 (lanes
// are distinct output columns, rows are distinct accumulators), and the zero
// padding contributes exact 0.0f. A kc-block after the first loads the C
// tile back into the accumulators and continues the chain, so the split
// into k-blocks is invisible. This holds for EVERY microkernel variant and
// EVERY kc — changing MR/NR only moves an element between registers, never
// reorders its chain — and the small-m fast path below (simd::axpy, FMA in
// every lane and in the tail) produces the identical chain. So a row of C
// is bitwise the same whatever other rows share the call, whichever path
// or blocking the shape routes to, for every k: batched and single-request
// runs of a layer agree, and so does a decode step sliced across workers
// (the property the concat-vs-single equivalence suites rely on). matmul_nt's
// small path reduces per-lane dot products instead and is not part of this
// contract. The scalar reference (tcb::ref::matmul) reassociates
// differently and is compared under tolerance instead.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/tuning.hpp"
#include "tensor/workspace.hpp"

namespace tcb {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Baseline packed-block depth (the autotuner's floor; see tuning.hpp).
constexpr Index kKc = 256;

// --- microkernel variants --------------------------------------------------
//
// ukernel<MR, NV> computes an MR x (NV * lane-width) tile:
// ctile[r * NR + j] += sum_p ap[p * MR + r] * bp[p * NR + j], each element's
// FMA chain starting from the value already in ctile (0 for the first
// k-block, the chain so far for later ones — never a separately rounded
// partial sum added afterwards). `ap` is k-major
// (MR values per depth), `bp` likewise with NR values per depth; both are
// zero-padded by the packers. Variants must keep MR * NV accumulators plus
// NV B vectors plus one A broadcast inside the register file.

#if defined(TCB_SIMD_AVX512)

template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  constexpr Index kNR = NV * 16;
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = _mm512_loadu_ps(ctile + r * kNR + 16 * v);
  for (Index p = 0; p < kc; ++p) {
    __m512 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm512_loadu_ps(bp + p * kNR + 16 * v);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_fmadd_ps(av, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      _mm512_storeu_ps(ctile + r * kNR + 16 * v, acc[r][v]);
}

#elif defined(TCB_SIMD_AVX2)

template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  constexpr Index kNR = NV * 8;
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = _mm256_loadu_ps(ctile + r * kNR + 8 * v);
  for (Index p = 0; p < kc; ++p) {
    __m256 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm256_loadu_ps(bp + p * kNR + 8 * v);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_fmadd_ps(av, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      _mm256_storeu_ps(ctile + r * kNR + 8 * v, acc[r][v]);
}

#elif defined(TCB_SIMD_NEON)

template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  constexpr Index kNR = NV * 4;
  float32x4_t acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = vld1q_f32(ctile + r * kNR + 4 * v);
  for (Index p = 0; p < kc; ++p) {
    float32x4_t b[NV];
    for (int v = 0; v < NV; ++v) b[v] = vld1q_f32(bp + p * kNR + 4 * v);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NV; ++v)
        acc[r][v] = vfmaq_n_f32(acc[r][v], b[v], arow[r]);
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) vst1q_f32(ctile + r * kNR + 4 * v, acc[r][v]);
}

#else

/// Scalar fallback: NV counts 8-wide column groups for the autovectorizer.
template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  constexpr Index kNR = NV * 8;
  float acc[MR * kNR];
  for (Index i = 0; i < MR * kNR; ++i) acc[i] = ctile[i];
  for (Index p = 0; p < kc; ++p) {
    const float* arow = ap + p * MR;
    const float* brow = bp + p * kNR;
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r];
      for (Index j = 0; j < kNR; ++j) acc[r * kNR + j] += av * brow[j];
    }
  }
  for (Index i = 0; i < MR * kNR; ++i) ctile[i] = acc[i];
}

#endif

struct MicroKernel {
  void (*fn)(Index kc, const float* ap, const float* bp, float* ctile);
  Index mr;
  Index nr;
  const char* tag;
};

#if defined(TCB_SIMD_AVX512)
// 8x32: 16 acc + 2 B + 1 bcast = 19 of 32 zmm. 12x32: 27. 8x16: 10 (less
// L1 pressure per panel). 4x64: 21 (wide outputs).
constexpr MicroKernel kMicroKernels[] = {
    {&ukernel<8, 2>, 8, 32, "avx512_8x32"},
    {&ukernel<12, 2>, 12, 32, "avx512_12x32"},
    {&ukernel<8, 1>, 8, 16, "avx512_8x16"},
    {&ukernel<4, 4>, 4, 64, "avx512_4x64"},
};
#elif defined(TCB_SIMD_AVX2)
// 6x16: 12 acc + 2 B + 1 bcast = 15 of 16 ymm (full tilt). 4x16: 11.
// 8x8: 10.
constexpr MicroKernel kMicroKernels[] = {
    {&ukernel<6, 2>, 6, 16, "avx2_6x16"},
    {&ukernel<4, 2>, 4, 16, "avx2_4x16"},
    {&ukernel<8, 1>, 8, 8, "avx2_8x8"},
};
#elif defined(TCB_SIMD_NEON)
constexpr MicroKernel kMicroKernels[] = {
    {&ukernel<8, 2>, 8, 8, "neon_8x8"},
    {&ukernel<4, 4>, 4, 16, "neon_4x16"},
    {&ukernel<8, 1>, 8, 4, "neon_8x4"},
};
#else
constexpr MicroKernel kMicroKernels[] = {
    {&ukernel<4, 1>, 4, 8, "scalar_4x8"},
};
#endif

constexpr int kDefaultKernel = 0;
constexpr Index kMr = kMicroKernels[kDefaultKernel].mr;
constexpr Index kNr = kMicroKernels[kDefaultKernel].nr;

/// Packs B[k0:k0+kc, 0:n] (row-major, leading dim n) into nr-column panels:
/// panel jp holds kc rows of nr floats, zero-padded past column n. `bp` is
/// raw workspace memory, so padding is written explicitly.
void pack_b(const float* b, Index n, Index k0, Index kc, Index nr,
            float* bp) TCB_BITWISE {
  const Index panels = (n + nr - 1) / nr;
  for (Index jp = 0; jp < panels; ++jp) {
    const Index j0 = jp * nr;
    const Index jn = std::min<Index>(nr, n - j0);
    float* dst = bp + static_cast<std::size_t>(jp) *
                          static_cast<std::size_t>(kc) * nr;
    for (Index p = 0; p < kc; ++p) {
      const float* src =
          b + static_cast<std::size_t>(k0 + p) * static_cast<std::size_t>(n) + j0;
      for (Index j = 0; j < jn; ++j) dst[p * nr + j] = src[j];
      for (Index j = jn; j < nr; ++j) dst[p * nr + j] = 0.0f;
    }
  }
}

/// Same panel layout, but the source is B(n,k) row-major and we need its
/// transpose: Bp[p][j] = B[j0+j, k0+p]. Used by matmul_nt.
void pack_b_transposed(const float* b, Index n, Index k, Index k0, Index kc,
                       Index nr, float* bp) TCB_BITWISE {
  const Index panels = (n + nr - 1) / nr;
  for (Index jp = 0; jp < panels; ++jp) {
    const Index j0 = jp * nr;
    const Index jn = std::min<Index>(nr, n - j0);
    float* dst = bp + static_cast<std::size_t>(jp) *
                          static_cast<std::size_t>(kc) * nr;
    for (Index j = 0; j < jn; ++j) {
      const float* src =
          b + static_cast<std::size_t>(j0 + j) * static_cast<std::size_t>(k) + k0;
      for (Index p = 0; p < kc; ++p) dst[p * nr + j] = src[p];
    }
    for (Index j = jn; j < nr; ++j)
      for (Index p = 0; p < kc; ++p) dst[p * nr + j] = 0.0f;
  }
}

/// Packs A[i0:i0+mr, k0:k0+kc] (row-major, leading dim k) k-major into `ap`,
/// zero-padding rows past mr up to mr_max.
void pack_a(const float* a, Index k, Index i0, Index mr, Index k0, Index kc,
            Index mr_max, float* ap) TCB_BITWISE {
  for (Index p = 0; p < kc; ++p) {
    float* dst = ap + p * mr_max;
    for (Index r = 0; r < mr; ++r)
      dst[r] = a[static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(k0 + p)];
    for (Index r = mr; r < mr_max; ++r) dst[r] = 0.0f;
  }
}

/// Blocked driver shared by matmul and matmul_nt; `transposed_b` selects the
/// B packing. C must already have shape (m, n).
void gemm_blocked(const float* pa, const float* pb, float* pc, Index m,
                  Index k, Index n, bool transposed_b,
                  const GemmBlocking& blk) TCB_BITWISE {
  const MicroKernel& uk = kMicroKernels[blk.kernel];
  const Index mr_max = uk.mr;
  const Index nr = uk.nr;
  const Index row_panels = (m + mr_max - 1) / mr_max;
  const Index col_panels = (n + nr - 1) / nr;
  const std::size_t grain_rows = gemm_grain(m, n, k);
  const std::size_t grain_panels =
      std::max<std::size_t>(1, grain_rows / static_cast<std::size_t>(mr_max));

  // One packed B slab per kc-block, packed on the calling thread and shared
  // read-only by all workers. The slab is workspace scratch sized for the
  // deepest block and reused across blocks; the scope spans the blocking
  // parallel_for calls, so worker reads always see live storage.
  WorkspaceScope bscope;
  const Index kc_max = std::min<Index>(blk.kc, k);
  float* bp = bscope.alloc(static_cast<std::size_t>(col_panels) *
                           static_cast<std::size_t>(kc_max) *
                           static_cast<std::size_t>(nr));
  for (Index k0 = 0; k0 < k; k0 += blk.kc) {
    const Index kc = std::min<Index>(blk.kc, k - k0);
    if (transposed_b)
      pack_b_transposed(pb, n, k, k0, kc, nr, bp);
    else
      pack_b(pb, n, k0, kc, nr, bp);
    const bool first_block = k0 == 0;

    parallel_for(
        static_cast<std::size_t>(row_panels),
        [&, bp](std::size_t begin, std::size_t end) {
          // Per-worker scratch from the executing thread's arena. On the
          // calling thread this nests LIFO inside bscope; pool workers use
          // their own arenas.
          WorkspaceScope wscope;
          float* ap = wscope.alloc(static_cast<std::size_t>(mr_max) *
                                   static_cast<std::size_t>(kc));
          float* ctile = wscope.alloc(static_cast<std::size_t>(mr_max) *
                                      static_cast<std::size_t>(nr));
          for (std::size_t rp = begin; rp < end; ++rp) {
            const Index i0 = static_cast<Index>(rp) * mr_max;
            const Index mr = std::min<Index>(mr_max, m - i0);
            pack_a(pa, k, i0, mr, k0, kc, mr_max, ap);
            for (Index jp = 0; jp < col_panels; ++jp) {
              const Index j0 = jp * nr;
              const Index jn = std::min<Index>(nr, n - j0);
              const float* bpanel = bp + static_cast<std::size_t>(jp) *
                                            static_cast<std::size_t>(kc) * nr;
              // Seed the accumulators: 0 on the first k-block, the chains
              // so far on later ones. Padding lanes start at 0 and are
              // clipped on write-back.
              for (Index r = 0; r < mr_max; ++r) {
                float* trow = ctile + r * nr;
                Index j = 0;
                if (!first_block && r < mr) {
                  const float* crow = pc + static_cast<std::size_t>(i0 + r) *
                                               static_cast<std::size_t>(n) +
                                      j0;
                  for (; j < jn; ++j) trow[j] = crow[j];
                }
                for (; j < nr; ++j) trow[j] = 0.0f;
              }
              uk.fn(kc, ap, bpanel, ctile);
              for (Index r = 0; r < mr; ++r) {
                float* crow = pc + static_cast<std::size_t>(i0 + r) *
                                       static_cast<std::size_t>(n) +
                              j0;
                const float* trow = ctile + r * nr;
                for (Index j = 0; j < jn; ++j) crow[j] = trow[j];
              }
            }
          }
        },
        grain_panels);
  }
}

/// Row-streaming path for short matrices (decode steps, tiny test shapes):
/// per row, C_row = sum_p a[p] * B_row(p) via SIMD axpy (matmul) or per
/// element dots (matmul_nt). No packing, so nothing to amortize.
void gemm_small_nn(const float* pa, const float* pb, float* pc, Index m,
                   Index k, Index n) TCB_BITWISE {
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          float* crow = pc + i * static_cast<std::size_t>(n);
          for (Index j = 0; j < n; ++j) crow[j] = 0.0f;
          const float* arow = pa + i * static_cast<std::size_t>(k);
          for (Index p = 0; p < k; ++p)
            simd::axpy(arow[p], pb + static_cast<std::size_t>(p) * n, crow, n);
        }
      },
      gemm_grain(m, n, k));
}

void gemm_small_nt(const float* pa, const float* pb, float* pc, Index m,
                   Index k, Index n) TCB_BITWISE {
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const float* arow = pa + i * static_cast<std::size_t>(k);
          float* crow = pc + i * static_cast<std::size_t>(n);
          for (Index j = 0; j < n; ++j)
            crow[j] = simd::dot(arow, pb + static_cast<std::size_t>(j) * k, k);
        }
      },
      gemm_grain(m, n, k));
}

/// The blocked path needs enough rows to amortize packing B (one sweep over
/// k*n) and enough columns for full vector panels. Thresholds use the
/// ISA-default tile so the routing decision is independent of tuning.
bool use_blocked(Index m, Index n, Index k) {
  return m >= 2 * kMr && n >= kNr && k >= 8;
}

}  // namespace

std::size_t gemm_kernel_count() noexcept {
  return sizeof(kMicroKernels) / sizeof(kMicroKernels[0]);
}

GemmKernelInfo gemm_kernel_info(std::size_t i) noexcept {
  GemmKernelInfo info;
  if (i < gemm_kernel_count()) {
    info.mr = kMicroKernels[i].mr;
    info.nr = kMicroKernels[i].nr;
    info.tag = kMicroKernels[i].tag;
  }
  return info;
}

GemmBlocking gemm_default_blocking() {
  GemmBlocking b;
  b.kc = kKc;
  b.mr = kMr;
  b.nr = kNr;
  b.kernel = kDefaultKernel;
  b.tag = std::string(kMicroKernels[kDefaultKernel].tag) + "/kc" +
          std::to_string(kKc);
  return b;
}

void gemm_blocked_with(const float* a, const float* b, float* c, Index m,
                       Index k, Index n, bool transposed_b,
                       const GemmBlocking& blk) {
  require(m > 0 && n > 0 && k > 0, "gemm_blocked_with: empty operand");
  require(blk.kernel >= 0 &&
              static_cast<std::size_t>(blk.kernel) < gemm_kernel_count() &&
              blk.kc > 0,
          "gemm_blocked_with: invalid blocking");
  gemm_blocked(a, b, c, m, k, n, transposed_b, blk);
}

std::size_t gemm_grain(Index m, Index n, Index k) {
  // Rows per parallel chunk. Two pressures: a chunk must carry enough
  // multiply-adds to pay for the pool handoff (floor), and the row range
  // should split into only a few chunks per worker so a 4096-row GEMM does
  // not fan out into hundreds of tiny tasks (ceiling). The old heuristic
  // (65536 / (n*k) + 1 rows) ignored the pool size entirely.
  constexpr double kMinMaddsPerChunk = 32768.0;
  const double per_row = static_cast<double>(n) * static_cast<double>(k);
  if (m <= 0 || per_row <= 0.0) return 1;
  const auto rows_for_floor = static_cast<std::size_t>(
      std::ceil(kMinMaddsPerChunk / per_row));
  const double workers =
      static_cast<double>(ThreadPool::global().parallelism());
  const auto rows_for_fanout = static_cast<std::size_t>(
      std::ceil(static_cast<double>(m) / (3.0 * workers)));
  return std::max<std::size_t>(1, std::max(rows_for_floor, rows_for_fanout));
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  matmul(a.raw(), b.raw(), c.raw(), m, k, n);
}

void matmul(const float* a, const float* b, float* c, Index m, Index k,
            Index n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill(c, c + static_cast<std::size_t>(m) * static_cast<std::size_t>(n),
              0.0f);
    return;
  }
  if (use_blocked(m, n, k))
    gemm_blocked(a, b, c, m, k, n, /*transposed_b=*/false,
                 select_blocking(classify_gemm(m, n)));
  else
    gemm_small_nn(a, b, c, m, k, n);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul(a, b, c);
  return c;
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_nt: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "matmul_nt: inner dimension mismatch");
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (m == 0 || n == 0) return;
  if (k == 0) {
    c.fill(0.0f);
    return;
  }
  if (use_blocked(m, n, k))
    gemm_blocked(a.raw(), b.raw(), c.raw(), m, k, n, /*transposed_b=*/true,
                 select_blocking(classify_gemm(m, n)));
  else
    gemm_small_nt(a.raw(), b.raw(), c.raw(), m, k, n);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt(a, b, c);
  return c;
}

}  // namespace tcb
