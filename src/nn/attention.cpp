#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

/// One attention task: a (row, span, head) triple. For the pure path the
/// span is the whole materialized row; for the slotted path it is one slot.
struct Task {
  Index row;
  Index begin;  ///< first column of the span
  Index width;  ///< span width
  Index head;
};

std::vector<Task> build_tasks(const BatchPlan& plan, Index width,
                              AttentionMode mode, Index n_heads) {
  std::vector<Task> tasks;
  const Index rows = static_cast<Index>(plan.rows.size());
  for (Index r = 0; r < rows; ++r) {
    const auto& row = plan.rows[static_cast<std::size_t>(r)];
    if (mode == AttentionMode::kSlotted && plan.slot_len > 0) {
      // Slots cover only the row's used extent; unused tail slots are never
      // materialized (that is the saving).
      for (Index begin = 0; begin < row.width; begin += plan.slot_len) {
        const Index w = std::min(plan.slot_len, row.width - begin);
        for (Index h = 0; h < n_heads; ++h) tasks.push_back({r, begin, w, h});
      }
    } else {
      // Pure path: rectangular tensor semantics — every row spans the full
      // materialized batch width, padding included.
      for (Index h = 0; h < n_heads; ++h) tasks.push_back({r, 0, width, h});
    }
  }
  return tasks;
}

void check_forward_args(const Tensor& x, const BatchPlan& plan, Index width,
                        AttentionMode mode, Index rows, Index d,
                        const char* who) {
  if (x.rank() != 2 || x.dim(0) != rows * width || x.dim(1) != d)
    throw std::invalid_argument(std::string(who) + ": x shape mismatch");
  if (mode == AttentionMode::kSlotted && plan.slot_len <= 0)
    throw std::invalid_argument(std::string(who) +
                                ": slotted mode needs slot_len");
}

/// Key-tile width of the flash kernel. One tile of scores lives on the
/// stack (kTile floats = one 256-byte strip, L1-resident by construction);
/// spans are walked tile-relative-to-their-own-start, so a segment's tile
/// sequence is a function of the segment alone — batching a request with
/// others never changes where its tile boundaries fall, which keeps the
/// concat-vs-single outputs bitwise identical (see DESIGN.md §13).
constexpr Index kTile = 64;

}  // namespace

MultiHeadAttention::MultiHeadAttention(const ModelConfig& cfg, Rng& rng)
    : wq_(cfg.d_model, cfg.d_model, rng),
      wk_(cfg.d_model, cfg.d_model, rng),
      wv_(cfg.d_model, cfg.d_model, rng),
      wo_(cfg.d_model, cfg.d_model, rng),
      n_heads_(cfg.n_heads),
      head_dim_(cfg.head_dim()) {}

Tensor MultiHeadAttention::encoder_forward(const Tensor& x,
                                           const BatchPlan& plan,
                                           Col width_col, AttentionMode mode,
                                           MaskPolicy mask) const {
  const Index width = width_col.value();
  const Index rows = static_cast<Index>(plan.rows.size());
  const Index d = n_heads_ * head_dim_;
  check_forward_args(x, plan, width, mode, rows, d, "encoder_forward");

  // Projection scratch, reused across layers and forwards: after the first
  // call at a shape these allocate nothing (matmul's out-param path keeps
  // same-shape storage). Thread-local because concurrent sessions may drive
  // separate forwards from separate threads.
  static thread_local Tensor q_tl, k_tl, v_tl, heads_tl;
  wq_.forward(x, q_tl);
  wk_.forward(x, k_tl);
  wv_.forward(x, v_tl);
  attend(q_tl.raw(), k_tl.raw(), v_tl.raw(), plan, width_col, mode, mask,
         heads_tl);
  return wo_.forward(heads_tl);
}

void MultiHeadAttention::attend(const float* pq, const float* pk,
                                const float* pv, const BatchPlan& plan,
                                Col width_col, AttentionMode mode,
                                MaskPolicy mask, Tensor& heads) const {
  // Unwrap the typed width once; everything below is deliberately raw index
  // math on the flattened (rows * width, d) buffers.
  const Index width = width_col.value();
  const Index rows = static_cast<Index>(plan.rows.size());
  const Index d = n_heads_ * head_dim_;
  if (mode == AttentionMode::kSlotted && plan.slot_len <= 0)
    throw std::invalid_argument("attend: slotted mode needs slot_len");

  // Mask geometry, built once per (plan, width) and reused across every
  // layer and head of the batch (the per-forward rebuild used to dominate
  // narrow batches). Touched here, before the fan-out, per the cache's
  // threading contract.
  const SegmentCache& sc = plan.segment_cache(width_col);
  TCB_CHECK(sc.row_count() == rows && sc.width() == width,
            "attend: segment cache geometry mismatch");

  const Shape out_shape{rows * width, d};
  if (!(heads.shape() == out_shape)) {
    heads = Tensor(out_shape);  // zero-initialized
  } else if (mode == AttentionMode::kSlotted) {
    // Reused storage: slotted tasks never touch columns past a row's used
    // extent, so stale tail values from a previous forward must be cleared.
    // (Pure tasks cover every column, padding included — nothing to clear.)
    float* p = heads.raw();
    for (Index r = 0; r < rows; ++r) {
      const Index used = plan.rows[static_cast<std::size_t>(r)].width;
      if (used >= width) continue;
      std::fill(p + (static_cast<std::size_t>(r) * width + used) *
                        static_cast<std::size_t>(d),
                p + (static_cast<std::size_t>(r) + 1) * width *
                        static_cast<std::size_t>(d),
                0.0f);
    }
  }

  const auto tasks = build_tasks(plan, width, mode, n_heads_);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  float* pout = heads.raw();
  const Index dh = head_dim_;

  parallel_for(tasks.size(), [&](std::size_t begin_task,
                                 std::size_t end_task) {
    // Flash-style tiled kernel (paper Eq. 5-6 fused into the score pass,
    // plus FlashAttention's online softmax): scores exist only one kTile
    // strip at a time, in L1. Per key tile the kernel keeps a running max m,
    // running exp-sum l, and an output accumulator that is rescaled by
    // alpha = exp(m_old - m_new) whenever the max advances; the final
    // normalize is one multiply by 1/l. Masked-out entries are never
    // computed at all — each query walks only the contiguous column spans
    // its mask admits (its own segment under kSegment, every non-padding
    // span under kRowShared). Skipping them is bitwise-neutral: a masked
    // entry would contribute exp(kMaskedOut - m) == 0.0f exactly.
    //
    // Scores are produced by vertical FMAs over a K^T panel packed per task
    // into workspace scratch: s[j] += q[c] * kt[c][j] for each of the dh
    // channels, so the hot loop is straight-line axpy with no horizontal
    // reductions, and exp runs vectorized over the strip.
    std::vector<std::pair<Index, Index>> spans;
    for (std::size_t ti = begin_task; ti < end_task; ++ti) {
      const Task& t = tasks[ti];
      const Index w = t.width;
      // Span/slot geometry: the task's span must lie inside the materialized
      // row, and the mask source must cover the span — out-of-bounds here
      // reads another request's K/V rows and produces plausible-but-wrong
      // attention, not a crash.
      TCB_DCHECK(t.row >= 0 && t.row < rows, "attention task row out of range");
      TCB_DCHECK(t.head >= 0 && t.head < n_heads_,
                 "attention task head out of range");
      TCB_DCHECK(w > 0 && t.begin >= 0 && t.begin + w <= width,
                 "attention span outside the materialized row");
      const std::size_t row_base = static_cast<std::size_t>(t.row) * width;
      const std::size_t head_off = static_cast<std::size_t>(t.head) * dh;
      const std::int32_t* smap = sc.seg_row(t.row);
      const Index* slo = sc.span_lo_row(t.row);
      const Index* shi = sc.span_hi_row(t.row);
      const Index t_end = t.begin + w;

      // Task-lifetime scratch from this worker's arena; rewound on scope
      // exit, so steady state allocates nothing.
      WorkspaceScope scope;
      // kt: the task's K rows transposed to channel-major, kt[c*w + j] =
      // K[t.begin + j][c] — the layout that makes the score update a
      // contiguous axpy per channel.
      float* kt =
          scope.alloc(static_cast<std::size_t>(w) * static_cast<std::size_t>(dh));
      float* qs = scope.alloc(static_cast<std::size_t>(dh));
      for (Index j = 0; j < w; ++j) {
        const float* kr = pk + (row_base + static_cast<std::size_t>(t.begin + j)) *
                                   static_cast<std::size_t>(d) +
                          head_off;
        for (Index c = 0; c < dh; ++c) kt[c * w + j] = kr[c];
      }

      for (Index i = 0; i < w; ++i) {
        const Index pos = t.begin + i;
        float* out = pout + (row_base + static_cast<std::size_t>(pos)) *
                                static_cast<std::size_t>(d) +
                     head_off;
        for (Index c = 0; c < dh; ++c) out[c] = 0.0f;
        if (smap[pos] < 0) continue;  // padding query: defined as zeros

        spans.clear();
        if (mask == MaskPolicy::kSegment) {
          // One contiguous span: the query's own segment, clipped to the
          // task (slots never split a segment, so the clip is a no-op for
          // valid plans; it guards degenerate hand-built ones).
          const Index lo = std::max(slo[pos], t.begin);
          const Index hi = std::min(shi[pos], t_end);
          if (lo < hi) spans.emplace_back(lo, hi);
        } else {
          for (const auto& span : sc.used_spans(t.row)) {
            const Index lo = std::max(span.first, t.begin);
            const Index hi = std::min(span.second, t_end);
            if (lo < hi) spans.emplace_back(lo, hi);
          }
        }

        // Fold 1/sqrt(d) into the query so the score loop is pure FMA.
        const float* qi = pq + (row_base + static_cast<std::size_t>(pos)) *
                                   static_cast<std::size_t>(d) +
                          head_off;
        for (Index c = 0; c < dh; ++c) qs[c] = qi[c] * inv_sqrt_d;

        float m = kMaskedOut;  // running max over keys seen so far
        float l = 0.0f;        // running sum of exp(s - m)
        alignas(64) float s[kTile];
        for (const auto& [lo, hi] : spans) {
          // Tiles step from the span's own start (not the task's), so the
          // tile sequence — and with it every rounding decision below — is
          // identical whether this segment runs alone or inside a batch.
          for (Index j0 = lo; j0 < hi; j0 += kTile) {
            const Index tw = std::min(kTile, hi - j0);
            const Index koff = j0 - t.begin;
            std::fill_n(s, static_cast<std::size_t>(tw), 0.0f);
            for (Index c = 0; c < dh; ++c)
              simd::axpy(qs[c], kt + c * w + koff, s, tw);

            const float tile_mx = simd::reduce_max(s, tw);
            if (tile_mx > m) {
              // The max advanced: rescale history into the new frame. On
              // the first tile alpha = exp(kMaskedOut - finite) == 0.0f
              // exactly, wiping the (already zero) accumulator.
              const float alpha = std::exp(m - tile_mx);
              l *= alpha;
              simd::scale(out, alpha, dh);
              m = tile_mx;
            }
            simd::exp_shift_inplace(s, m, tw);
            // Online-softmax running sum: one scalar add per kTile tile,
            // in span-relative tile order — concat-invariant and pinned by
            // the flash-vs-reference ULP suite.
            // tcb-lint: allow(raw-fp-accumulation)
            l += simd::reduce_add(s, tw);
            for (Index j = 0; j < tw; ++j)
              simd::axpy(s[j],
                         pv + (row_base + static_cast<std::size_t>(j0 + j)) *
                                  static_cast<std::size_t>(d) +
                             head_off,
                         out, dh);
          }
        }
        // l == 0 means no admissible key (fully-masked query): stay zeros.
        if (l > 0.0f) simd::scale(out, 1.0f / l, dh);
      }
    }
  });
}

Tensor MultiHeadAttention::encoder_forward_reference(const Tensor& x,
                                                     const BatchPlan& plan,
                                                     Col width_col,
                                                     AttentionMode mode,
                                                     MaskPolicy mask) const {
  const Index width = width_col.value();
  const Index rows = static_cast<Index>(plan.rows.size());
  const Index d = n_heads_ * head_dim_;
  check_forward_args(x, plan, width, mode, rows, d,
                     "encoder_forward_reference");

  const Tensor q = wq_.forward(x);
  const Tensor k = wk_.forward(x);
  const Tensor v = wv_.forward(x);

  // Per-row segment maps padded to the materialized width (-1 = padding).
  std::vector<std::vector<std::int32_t>> seg(static_cast<std::size_t>(rows));
  for (Index r = 0; r < rows; ++r) {
    auto map = segment_map(plan.rows[static_cast<std::size_t>(r)]);
    map.resize(static_cast<std::size_t>(width), -1);
    seg[static_cast<std::size_t>(r)] = std::move(map);
  }

  Tensor heads_out(Shape{rows * width, d});
  const auto tasks = build_tasks(plan, width, mode, n_heads_);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const float* pq = q.raw();
  const float* pk = k.raw();
  const float* pv = v.raw();
  float* pout = heads_out.raw();
  const Index dh = head_dim_;

  // Materialized score matrix per task — like the GPU kernels in Fig. 6/7,
  // the whole (masked) matrix exists before softmax.
  std::vector<float> scores;
  for (const Task& t : tasks) {
    const Index w = t.width;
    TCB_DCHECK(w > 0 && t.begin >= 0 && t.begin + w <= width,
               "attention span outside the materialized row");
    scores.assign(static_cast<std::size_t>(w) * static_cast<std::size_t>(w),
                  0.0f);
    const std::size_t row_base = static_cast<std::size_t>(t.row) * width;
    const std::size_t head_off = static_cast<std::size_t>(t.head) * dh;
    const auto& smap = seg[static_cast<std::size_t>(t.row)];

    // Step 2 (Fig. 6): S = Q K^T / sqrt(d) over the whole span.
    for (Index i = 0; i < w; ++i) {
      const float* qi =
          pq + (row_base + static_cast<std::size_t>(t.begin + i)) *
                   static_cast<std::size_t>(d) +
          head_off;
      float* srow = scores.data() + static_cast<std::size_t>(i) * w;
      for (Index j = 0; j < w; ++j) {
        const float* kj =
            pk + (row_base + static_cast<std::size_t>(t.begin + j)) *
                     static_cast<std::size_t>(d) +
            head_off;
        float acc = 0.0f;
        for (Index c = 0; c < dh; ++c) acc += qi[c] * kj[c];
        srow[j] = acc * inv_sqrt_d;
      }
    }

    // Step 3 (Fig. 6): mask the redundant entries (Eq. 6) in a second sweep.
    for (Index i = 0; i < w; ++i) {
      const std::int32_t si = smap[static_cast<std::size_t>(t.begin + i)];
      float* srow = scores.data() + static_cast<std::size_t>(i) * w;
      for (Index j = 0; j < w; ++j) {
        const std::int32_t sj = smap[static_cast<std::size_t>(t.begin + j)];
        const bool allowed = mask == MaskPolicy::kSegment
                                 ? (si >= 0 && si == sj)
                                 : (si >= 0 && sj >= 0);
        if (!allowed) srow[j] = kMaskedOut;
      }
    }

    // Step 4 (Fig. 6): softmax, then multiply with V.
    for (Index i = 0; i < w; ++i) {
      float* srow = scores.data() + static_cast<std::size_t>(i) * w;
      float mx = srow[0];
      for (Index j = 1; j < w; ++j) mx = std::max(mx, srow[j]);
      float* out = pout + (row_base + static_cast<std::size_t>(t.begin + i)) *
                              static_cast<std::size_t>(d) +
                   head_off;
      for (Index c = 0; c < dh; ++c) out[c] = 0.0f;
      if (mx <= kMaskedOut / 2) continue;  // fully-masked padding query
      float sum = 0.0f;
      for (Index j = 0; j < w; ++j) {
        srow[j] = std::exp(srow[j] - mx);
        sum += srow[j];
      }
      const float inv = 1.0f / sum;
      for (Index j = 0; j < w; ++j) {
        const float a = srow[j] * inv;
        const float* vj =
            pv + (row_base + static_cast<std::size_t>(t.begin + j)) *
                     static_cast<std::size_t>(d) +
            head_off;
        for (Index c = 0; c < dh; ++c) out[c] += a * vj[c];
      }
    }
  }

  return wo_.forward(heads_out);
}

Index score_entries(const BatchPlan& plan, Col width_col, AttentionMode mode) {
  const Index width = width_col.value();
  Index total = 0;
  for (const auto& row : plan.rows) {
    if (mode == AttentionMode::kSlotted && plan.slot_len > 0) {
      for (Index begin = 0; begin < row.width; begin += plan.slot_len) {
        const Index w = std::min(plan.slot_len, row.width - begin);
        total += w * w;
      }
    } else {
      total += width * width;
    }
  }
  return total;
}

}  // namespace tcb
