// GEMM (matmul / matmul_nt): three paths, routed by shape.
//
//   in-place tiled   matmul with m < kGemmBlockedMinRows (ops.hpp), or
//                    n < kNr, or k < 8: every decode slice and splice
//                    encode. An MR x (NV * lanes) block of C lives in
//                    vector registers while k is walked in order; each
//                    depth loads B's row segment once and FMAs the
//                    broadcast a[r][p] into every row. Nothing is packed.
//   packed, blocked  matmul from kGemmBlockedMinRows rows, matmul_nt from
//                    2 * kMr rows (n >= kNr, k >= 8): the classic
//                    GotoBLAS/BLIS decomposition below.
//   dot products     matmul_nt below that: one simd::dot per element.
//
// The blocked path, sized for the encoder's shapes (m up to a few
// thousand, k/n up to a few thousand):
//
//   for each kKc-deep block of K:                     L2-resident B slab
//     pack B[kc, n] into kNr-column panels (Bp)
//     parallel over kMr-row panels of A:              one chunk per worker(s)
//       pack A[kMr, kc] into a k-major panel (Ap)
//       for each kNr-column panel: microkernel        registers only
//
// The microkernel computes a kMr x kNr tile held entirely in vector
// registers. Each ISA compiles exactly one tile — AVX-512 8x32, AVX2 6x16,
// NEON 8x8, scalar 4x8 — and every ISA packs kKc = 256 depths per block.
// Nothing is chosen at run time; DESIGN.md §13.5 has the measurement that
// showed choosing among tiles and depths gained nothing. Panels are
// zero-padded to full kMr/kNr so the microkernel has no edge branches; the
// write-back clips to the valid region.
//
// Scratch (the packed Ap/Bp panels and the C tile) lives in the per-thread
// Workspace arena (tensor/workspace.hpp) instead of per-call std::vectors:
// after the first call warms the arenas, repeated GEMMs perform zero heap
// allocations. The tiled path needs no scratch at all.
//
// Routing: kGemmBlockedMinRows is the crossover BM_MatmulDecode measured
// (EXPERIMENTS.md): below it, reading B once per tile rows from cache beats
// packing B on every call. Like the tile and kKc it is a fixed constant —
// no option or environment variable moves it — so a shape routes and
// blocks the same on every host of one ISA.
//
// Numerical contract: every C element of matmul is ONE fused-multiply-add
// chain in ascending k order over the whole depth, starting from 0 (lanes
// are distinct output columns, rows are distinct accumulators), and the zero
// padding contributes exact 0.0f. The tiles build that chain directly, in
// every row remainder and column tail. In the blocked path a k-block after
// the first loads the C tile back into the accumulators and continues the
// chain, so the split into ceil(k / kKc) blocks is invisible for every k —
// and the tile shape only moves an element between registers, never
// reorders its chain. It is the chain simd::axpy builds for one row. So a
// row of C is bitwise the same whatever other rows share the call,
// whichever path the shape routes to, for every k: batched and
// single-request runs of a layer agree, and so does a decode step sliced
// across workers (the property the concat-vs-single equivalence suites
// rely on; tests/tensor/gemm_invariance_test.cpp pins it). matmul_nt's
// dot-product path reduces per-lane partial sums instead and is not part of
// this contract. The scalar reference (tcb::ref::matmul) reassociates
// differently and is compared under tolerance instead.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"

namespace tcb {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Packed-block depth: kKc depths of B (times the columns) form one slab.
constexpr Index kKc = 256;

// --- the microkernel -------------------------------------------------------
//
// ukernel computes a kMr x kNr tile (kNr = kNv vectors):
// ctile[r * kNr + j] += sum_p ap[p * kMr + r] * bp[p * kNr + j], each
// element's FMA chain starting from the value already in ctile (0 for the
// first k-block, the chain so far for later ones — never a separately
// rounded partial sum added afterwards). `ap` is k-major (kMr values per
// depth), `bp` likewise with kNr values per depth; both are zero-padded by
// the packers. The tile keeps kMr * kNv accumulators plus kNv B vectors plus
// one A broadcast inside the register file.

#if defined(TCB_SIMD_AVX512)

// 8x32: 16 acc + 2 B + 1 bcast = 19 of 32 zmm.
constexpr Index kMr = 8;
constexpr Index kNv = 2;
constexpr Index kNr = kNv * 16;

void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  __m512 acc[kMr][kNv];
  for (int r = 0; r < kMr; ++r)
    for (int v = 0; v < kNv; ++v)
      acc[r][v] = _mm512_loadu_ps(ctile + r * kNr + 16 * v);
  for (Index p = 0; p < kc; ++p) {
    __m512 b[kNv];
    for (int v = 0; v < kNv; ++v) b[v] = _mm512_loadu_ps(bp + p * kNr + 16 * v);
    const float* arow = ap + p * kMr;
    for (int r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      for (int v = 0; v < kNv; ++v) acc[r][v] = _mm512_fmadd_ps(av, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < kMr; ++r)
    for (int v = 0; v < kNv; ++v)
      _mm512_storeu_ps(ctile + r * kNr + 16 * v, acc[r][v]);
}

#elif defined(TCB_SIMD_AVX2)

// 6x16: 12 acc + 2 B + 1 bcast = 15 of 16 ymm.
constexpr Index kMr = 6;
constexpr Index kNv = 2;
constexpr Index kNr = kNv * 8;

void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  __m256 acc[kMr][kNv];
  for (int r = 0; r < kMr; ++r)
    for (int v = 0; v < kNv; ++v)
      acc[r][v] = _mm256_loadu_ps(ctile + r * kNr + 8 * v);
  for (Index p = 0; p < kc; ++p) {
    __m256 b[kNv];
    for (int v = 0; v < kNv; ++v) b[v] = _mm256_loadu_ps(bp + p * kNr + 8 * v);
    const float* arow = ap + p * kMr;
    for (int r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      for (int v = 0; v < kNv; ++v) acc[r][v] = _mm256_fmadd_ps(av, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < kMr; ++r)
    for (int v = 0; v < kNv; ++v)
      _mm256_storeu_ps(ctile + r * kNr + 8 * v, acc[r][v]);
}

#elif defined(TCB_SIMD_NEON)

// 8x8: 16 acc + 2 B = 18 of 32 q registers.
constexpr Index kMr = 8;
constexpr Index kNv = 2;
constexpr Index kNr = kNv * 4;

void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  float32x4_t acc[kMr][kNv];
  for (int r = 0; r < kMr; ++r)
    for (int v = 0; v < kNv; ++v) acc[r][v] = vld1q_f32(ctile + r * kNr + 4 * v);
  for (Index p = 0; p < kc; ++p) {
    float32x4_t b[kNv];
    for (int v = 0; v < kNv; ++v) b[v] = vld1q_f32(bp + p * kNr + 4 * v);
    const float* arow = ap + p * kMr;
    for (int r = 0; r < kMr; ++r)
      for (int v = 0; v < kNv; ++v)
        acc[r][v] = vfmaq_n_f32(acc[r][v], b[v], arow[r]);
  }
  for (int r = 0; r < kMr; ++r)
    for (int v = 0; v < kNv; ++v) vst1q_f32(ctile + r * kNr + 4 * v, acc[r][v]);
}

#else

/// Scalar fallback: one 8-wide column group for the autovectorizer.
constexpr Index kMr = 4;
constexpr Index kNv = 1;
constexpr Index kNr = kNv * 8;

void ukernel(Index kc, const float* ap, const float* bp, float* ctile) {
  float acc[kMr * kNr];
  for (Index i = 0; i < kMr * kNr; ++i) acc[i] = ctile[i];
  for (Index p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + p * kNr;
    for (int r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (Index j = 0; j < kNr; ++j) acc[r * kNr + j] += av * brow[j];
    }
  }
  for (Index i = 0; i < kMr * kNr; ++i) ctile[i] = acc[i];
}

#endif

// --- in-place tile kernels (the short-matrix path) --------------------------
//
// tile<MR, NV> computes an MR x (NV * kTileLanes) block of C = A·B straight
// from A (row stride k) and B and C (row stride n): per depth p it loads B's
// row segment once, broadcasts each a[r][p] and FMAs it into row r's
// accumulators, which start at 0. So every C element is one FMA chain in
// ascending k — the chain simd::axpy builds for one row at a time and the
// blocked microkernel builds — whatever rows share the tile. tile_tail<MR>
// covers the last cols < kTileLanes columns with the same per-lane chain:
// masked lanes on x86 and scalar std::fma on NEON (a fused multiply-add
// rounds once whatever its width, so both equal simd::axpy's narrower
// vector and scalar-fma tail), the same expression again in the scalar
// build. No shape reaches a tile with rows or columns to clip.

#if defined(TCB_SIMD_AVX512)

// 6x64: 24 acc + 4 B + 1 bcast = 29 of 32 zmm. Six rows read each B
// segment a third less often than four (BM_MatmulDecode, EXPERIMENTS.md).
constexpr Index kTileLanes = 16;
constexpr Index kTileMr = 6;
constexpr Index kTileNv = 4;

template <int MR, int NV>
void tile(const float* a, const float* b, float* c, Index k, Index n,
          Index /*cols*/) {
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  for (Index p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n;
    __m512 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm512_loadu_ps(brow + 16 * v);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * k + p]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      _mm512_storeu_ps(c + r * n + 16 * v, acc[r][v]);
}

template <int MR>
void tile_tail(const float* a, const float* b, float* c, Index k, Index n,
               Index cols) {
  const auto mask = static_cast<__mmask16>((1u << cols) - 1u);
  __m512 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
  for (Index p = 0; p < k; ++p) {
    const __m512 bv =
        _mm512_maskz_loadu_ps(mask, b + static_cast<std::size_t>(p) * n);
    for (int r = 0; r < MR; ++r)
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(a[r * k + p]), bv, acc[r]);
  }
  for (int r = 0; r < MR; ++r) _mm512_mask_storeu_ps(c + r * n, mask, acc[r]);
}

#elif defined(TCB_SIMD_AVX2)

// 4x16: 8 acc + 2 B + 1 bcast = 11 of 16 ymm.
constexpr Index kTileLanes = 8;
constexpr Index kTileMr = 4;
constexpr Index kTileNv = 2;

template <int MR, int NV>
void tile(const float* a, const float* b, float* c, Index k, Index n,
          Index /*cols*/) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
  for (Index p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * k + p]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      _mm256_storeu_ps(c + r * n + 8 * v, acc[r][v]);
}

template <int MR>
void tile_tail(const float* a, const float* b, float* c, Index k, Index n,
               Index cols) {
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm256_setzero_ps();
  for (Index p = 0; p < k; ++p) {
    const __m256 bv =
        _mm256_maskload_ps(b + static_cast<std::size_t>(p) * n, mask);
    for (int r = 0; r < MR; ++r)
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * k + p]), bv, acc[r]);
  }
  for (int r = 0; r < MR; ++r) _mm256_maskstore_ps(c + r * n, mask, acc[r]);
}

#elif defined(TCB_SIMD_NEON)

// 4x16: 16 acc + 4 B = 20 of 32 q registers.
constexpr Index kTileLanes = 4;
constexpr Index kTileMr = 4;
constexpr Index kTileNv = 4;

template <int MR, int NV>
void tile(const float* a, const float* b, float* c, Index k, Index n,
          Index /*cols*/) {
  float32x4_t acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = vdupq_n_f32(0.0f);
  for (Index p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n;
    float32x4_t bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = vld1q_f32(brow + 4 * v);
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NV; ++v)
        acc[r][v] = vfmaq_n_f32(acc[r][v], bv[v], a[r * k + p]);
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) vst1q_f32(c + r * n + 4 * v, acc[r][v]);
}

template <int MR>
void tile_tail(const float* a, const float* b, float* c, Index k, Index n,
               Index cols) {
  float acc[MR][kTileLanes] = {};
  for (Index p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int r = 0; r < MR; ++r)
      for (Index j = 0; j < cols; ++j)
        acc[r][j] = std::fma(a[r * k + p], brow[j], acc[r][j]);
  }
  for (int r = 0; r < MR; ++r)
    for (Index j = 0; j < cols; ++j) c[r * n + j] = acc[r][j];
}

#else

/// Scalar fallback: NV counts 8-wide column groups for the autovectorizer.
/// `acc += av * b` is simd::axpy's scalar expression, and TCB_SIMD=OFF
/// builds with -ffp-contract=off, so both round the multiply and the add
/// separately wherever they are inlined.
constexpr Index kTileLanes = 8;
constexpr Index kTileMr = 4;
constexpr Index kTileNv = 1;

template <int MR>
void tile_tail(const float* a, const float* b, float* c, Index k, Index n,
               Index cols) {
  float acc[MR][kTileLanes] = {};
  for (Index p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * k + p];
      for (Index j = 0; j < cols; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < MR; ++r)
    for (Index j = 0; j < cols; ++j) c[r * n + j] = acc[r][j];
}

template <int MR, int NV>
void tile(const float* a, const float* b, float* c, Index k, Index n,
          Index /*cols*/) {
  tile_tail<MR>(a, b, c, k, n, NV * kTileLanes);
}

#endif

constexpr Index kTileNc = kTileNv * kTileLanes;

using TileFn = void (*)(const float* a, const float* b, float* c, Index k,
                        Index n, Index cols);

template <int MR, std::size_t... V>
constexpr std::array<TileFn, kTileNv> tile_row(std::index_sequence<V...>) {
  return {&tile<MR, static_cast<int>(V) + 1>...};
}

template <std::size_t... R>
constexpr std::array<std::array<TileFn, kTileNv>, kTileMr> tile_table(
    std::index_sequence<R...>) {
  return {tile_row<static_cast<int>(R) + 1>(
      std::make_index_sequence<kTileNv>{})...};
}

template <std::size_t... R>
constexpr std::array<TileFn, kTileMr> tail_table(std::index_sequence<R...>) {
  return {&tile_tail<static_cast<int>(R) + 1>...};
}

/// kTiles[rows - 1][vectors - 1] / kTileTails[rows - 1].
constexpr auto kTiles = tile_table(std::make_index_sequence<kTileMr>{});
constexpr auto kTileTails = tail_table(std::make_index_sequence<kTileMr>{});

/// One rows x cols block of C (rows <= kTileMr, cols <= kTileNc): whole
/// vectors through one tile, the sub-vector rest through the tail tile.
void tile_block(const float* a, const float* b, float* c, Index k, Index n,
                Index rows, Index cols) TCB_BITWISE {
  const Index nv = cols / kTileLanes;
  const Index tail = cols - nv * kTileLanes;
  const auto r = static_cast<std::size_t>(rows - 1);
  if (nv > 0) kTiles[r][static_cast<std::size_t>(nv - 1)](a, b, c, k, n, 0);
  if (tail > 0)
    kTileTails[r](a, b + nv * kTileLanes, c + nv * kTileLanes, k, n, tail);
}

/// Packs B[k0:k0+kc, 0:n] (row-major, leading dim n) into kNr-column
/// panels: panel jp holds kc rows of kNr floats, zero-padded past column n.
/// `bp` is raw workspace memory, so padding is written explicitly.
void pack_b(const float* b, Index n, Index k0, Index kc,
            float* bp) TCB_BITWISE {
  const Index panels = (n + kNr - 1) / kNr;
  for (Index jp = 0; jp < panels; ++jp) {
    const Index j0 = jp * kNr;
    const Index jn = std::min<Index>(kNr, n - j0);
    float* dst = bp + static_cast<std::size_t>(jp) *
                          static_cast<std::size_t>(kc) * kNr;
    for (Index p = 0; p < kc; ++p) {
      const float* src =
          b + static_cast<std::size_t>(k0 + p) * static_cast<std::size_t>(n) + j0;
      for (Index j = 0; j < jn; ++j) dst[p * kNr + j] = src[j];
      for (Index j = jn; j < kNr; ++j) dst[p * kNr + j] = 0.0f;
    }
  }
}

/// Same panel layout, but the source is B(n,k) row-major and we need its
/// transpose: Bp[p][j] = B[j0+j, k0+p]. Used by matmul_nt.
void pack_b_transposed(const float* b, Index n, Index k, Index k0, Index kc,
                       float* bp) TCB_BITWISE {
  const Index panels = (n + kNr - 1) / kNr;
  for (Index jp = 0; jp < panels; ++jp) {
    const Index j0 = jp * kNr;
    const Index jn = std::min<Index>(kNr, n - j0);
    float* dst = bp + static_cast<std::size_t>(jp) *
                          static_cast<std::size_t>(kc) * kNr;
    for (Index j = 0; j < jn; ++j) {
      const float* src =
          b + static_cast<std::size_t>(j0 + j) * static_cast<std::size_t>(k) + k0;
      for (Index p = 0; p < kc; ++p) dst[p * kNr + j] = src[p];
    }
    for (Index j = jn; j < kNr; ++j)
      for (Index p = 0; p < kc; ++p) dst[p * kNr + j] = 0.0f;
  }
}

/// Packs A[i0:i0+mr, k0:k0+kc] (row-major, leading dim k) k-major into `ap`,
/// zero-padding rows past mr up to kMr.
void pack_a(const float* a, Index k, Index i0, Index mr, Index k0, Index kc,
            float* ap) TCB_BITWISE {
  for (Index p = 0; p < kc; ++p) {
    float* dst = ap + p * kMr;
    for (Index r = 0; r < mr; ++r)
      dst[r] = a[static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(k0 + p)];
    for (Index r = mr; r < kMr; ++r) dst[r] = 0.0f;
  }
}

/// Blocked driver shared by matmul and matmul_nt; `transposed_b` selects the
/// B packing. C must already have shape (m, n).
void gemm_blocked(const float* pa, const float* pb, float* pc, Index m,
                  Index k, Index n, bool transposed_b) TCB_BITWISE {
  const Index row_panels = (m + kMr - 1) / kMr;
  const Index col_panels = (n + kNr - 1) / kNr;
  const std::size_t grain_rows = gemm_grain(m, n, k);
  const std::size_t grain_panels =
      std::max<std::size_t>(1, grain_rows / static_cast<std::size_t>(kMr));

  // One packed B slab per kc-block, packed on the calling thread and shared
  // read-only by all workers. The slab is workspace scratch sized for the
  // deepest block and reused across blocks; the scope spans the blocking
  // parallel_for calls, so worker reads always see live storage.
  WorkspaceScope bscope;
  const Index kc_max = std::min<Index>(kKc, k);
  float* bp = bscope.alloc(static_cast<std::size_t>(col_panels) *
                           static_cast<std::size_t>(kc_max) *
                           static_cast<std::size_t>(kNr));
  for (Index k0 = 0; k0 < k; k0 += kKc) {
    const Index kc = std::min<Index>(kKc, k - k0);
    if (transposed_b)
      pack_b_transposed(pb, n, k, k0, kc, bp);
    else
      pack_b(pb, n, k0, kc, bp);
    const bool first_block = k0 == 0;

    parallel_for(
        static_cast<std::size_t>(row_panels),
        [&, bp](std::size_t begin, std::size_t end) {
          // Per-worker scratch from the executing thread's arena. On the
          // calling thread this nests LIFO inside bscope; pool workers use
          // their own arenas.
          WorkspaceScope wscope;
          float* ap = wscope.alloc(static_cast<std::size_t>(kMr) *
                                   static_cast<std::size_t>(kc));
          float* ctile = wscope.alloc(static_cast<std::size_t>(kMr) *
                                      static_cast<std::size_t>(kNr));
          for (std::size_t rp = begin; rp < end; ++rp) {
            const Index i0 = static_cast<Index>(rp) * kMr;
            const Index mr = std::min<Index>(kMr, m - i0);
            pack_a(pa, k, i0, mr, k0, kc, ap);
            for (Index jp = 0; jp < col_panels; ++jp) {
              const Index j0 = jp * kNr;
              const Index jn = std::min<Index>(kNr, n - j0);
              const float* bpanel = bp + static_cast<std::size_t>(jp) *
                                            static_cast<std::size_t>(kc) * kNr;
              // Seed the accumulators: 0 on the first k-block, the chains
              // so far on later ones. Padding lanes start at 0 and are
              // clipped on write-back.
              for (Index r = 0; r < kMr; ++r) {
                float* trow = ctile + r * kNr;
                Index j = 0;
                if (!first_block && r < mr) {
                  const float* crow = pc + static_cast<std::size_t>(i0 + r) *
                                               static_cast<std::size_t>(n) +
                                      j0;
                  for (; j < jn; ++j) trow[j] = crow[j];
                }
                for (; j < kNr; ++j) trow[j] = 0.0f;
              }
              ukernel(kc, ap, bpanel, ctile);
              for (Index r = 0; r < mr; ++r) {
                float* crow = pc + static_cast<std::size_t>(i0 + r) *
                                       static_cast<std::size_t>(n) +
                              j0;
                const float* trow = ctile + r * kNr;
                for (Index j = 0; j < jn; ++j) crow[j] = trow[j];
              }
            }
          }
        },
        grain_panels);
  }
}

/// Tiles per parallel chunk for the tiled path. A pool fork-join costs
/// about as much as a few hundred thousand multiply-adds, so a chunk must
/// carry at least kTiledMinMadds or a decode-sized product is faster run
/// inline on the calling thread; above that, gemm_grain's fan-out ceiling.
std::size_t tiled_grain(Index tiles, Index k) {
  constexpr Index kTiledMinMadds = Index{1} << 20;
  const Index per_tile = kTileMr * kTileNc * k;
  const auto floor =
      static_cast<std::size_t>((kTiledMinMadds + per_tile - 1) / per_tile);
  return std::max(floor, gemm_grain(tiles, kTileMr * kTileNc, k));
}

/// Register-tiled path for short matrices (decode slices, splice encodes):
/// C = A·B with A and B read where they lie — no packing, so nothing to
/// amortize. Tiles are enumerated column block by column block, so a chunk
/// of consecutive tiles runs every row block of A against one B panel while
/// that panel is cache-resident: B is read once per row block instead of
/// once per row.
void gemm_tiled_nn(const float* pa, const float* pb, float* pc, Index m,
                   Index k, Index n) TCB_BITWISE {
  const Index row_blocks = (m + kTileMr - 1) / kTileMr;
  const Index col_blocks = (n + kTileNc - 1) / kTileNc;
  parallel_for(
      static_cast<std::size_t>(row_blocks * col_blocks),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          const Index i0 = static_cast<Index>(t) % row_blocks * kTileMr;
          const Index j0 = static_cast<Index>(t) / row_blocks * kTileNc;
          tile_block(pa + static_cast<std::size_t>(i0) *
                              static_cast<std::size_t>(k),
                     pb + j0,
                     pc + static_cast<std::size_t>(i0) *
                              static_cast<std::size_t>(n) +
                         j0,
                     k, n, std::min(kTileMr, m - i0),
                     std::min(kTileNc, n - j0));
        }
      },
      tiled_grain(row_blocks * col_blocks, k));
}

/// Dot-product path for short matmul_nt products: one simd::dot per
/// element, nothing packed.
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

/// The blocked path needs at least `min_rows` rows to amortize packing B
/// (one sweep over k*n) and enough columns for full vector panels. matmul
/// passes kGemmBlockedMinRows; matmul_nt, whose dot-product path stops
/// paying off sooner, passes two microkernel heights.
bool use_blocked(Index m, Index n, Index k, Index min_rows) {
  return m >= min_rows && n >= kNr && k >= 8;
}

}  // namespace

void gemm_blocked_with(const float* a, const float* b, float* c, Index m,
                       Index k, Index n, bool transposed_b) {
  require(m > 0 && n > 0 && k > 0, "gemm_blocked_with: empty operand");
  gemm_blocked(a, b, c, m, k, n, transposed_b);
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
  if (use_blocked(m, n, k, kGemmBlockedMinRows))
    gemm_blocked(a, b, c, m, k, n, /*transposed_b=*/false);
  else
    gemm_tiled_nn(a, b, c, m, k, n);
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
  if (use_blocked(m, n, k, 2 * kMr))
    gemm_blocked(a.raw(), b.raw(), c.raw(), m, k, n, /*transposed_b=*/true);
  else
    gemm_small_nt(a.raw(), b.raw(), c.raw(), m, k, n);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt(a, b, c);
  return c;
}

}  // namespace tcb
