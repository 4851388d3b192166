#include "nn/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "batching/concat_batcher.hpp"
#include "batching/packed_batch.hpp"
#include "nn/encoder.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"

namespace tcb {

DecoderLayer::DecoderLayer(const ModelConfig& cfg, Rng& rng)
    : self_attn_(cfg, rng),
      cross_attn_(cfg, rng),
      ffn_(cfg, rng),
      eps_(cfg.layer_norm_eps) {
  for (int i = 0; i < 3; ++i) {
    ln_gamma_.emplace_back(Shape{cfg.d_model}, 1.0f);
    ln_beta_.emplace_back(Shape{cfg.d_model}, 0.0f);
  }
}

namespace {

/// Top-k temperature sampling over one logits row; the candidate set is the
/// k largest logits (ties by lower index, like argmax). Works in `best` and
/// `weights`, reserved to top_k by the caller, so it never allocates.
Index sample_top_k(const float* logits, Index vocab, Index k,
                   float temperature, Rng& rng, std::vector<Index>& best,
                   std::vector<double>& weights) {
  k = std::min(k, vocab);
  // Partial selection of the k best indices.
  best.clear();
  for (Index v = 0; v < vocab; ++v) {
    if (static_cast<Index>(best.size()) < k) {
      best.push_back(v);
      if (static_cast<Index>(best.size()) == k)
        std::sort(best.begin(), best.end(), [&](Index a, Index b) {
          return logits[a] > logits[b] || (logits[a] == logits[b] && a < b);
        });
      continue;
    }
    if (logits[v] > logits[best.back()]) {
      best.back() = v;
      for (std::size_t i = best.size() - 1;
           i > 0 && (logits[best[i]] > logits[best[i - 1]] ||
                     (logits[best[i]] == logits[best[i - 1]] &&
                      best[i] < best[i - 1]));
           --i)
        std::swap(best[i], best[i - 1]);
    }
  }

  const float inv_t = 1.0f / std::max(temperature, 1e-6f);
  const float mx = logits[best[0]];
  weights.resize(best.size());
  double total = 0.0;
  for (std::size_t i = 0; i < best.size(); ++i) {
    weights[i] = std::exp(static_cast<double>((logits[best[i]] - mx) * inv_t));
    total += weights[i];
  }
  double u = rng.next_double() * total;
  for (std::size_t i = 0; i < best.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return best[i];
  }
  return best.back();
}

}  // namespace

DecodeSession::DecodeSession(const Seq2SeqModel& model, EncoderMemory memory,
                             DecodeOptions opts)
    : model_(model),
      memory_(std::move(memory)),
      opts_(opts),
      ledger_(memory_.plan, opts_.mode == AttentionMode::kSlotted) {
  max_steps_ = std::min<Index>(opts_.max_steps, model_.config().max_len);
  held_kv_bytes_.resize(ledger_.slot_count());
  if (ledger_.done()) return;

  // Source mask geometry, shared with the encoder via the plan's cache.
  // Touched here, before any fan-out, per the cache's threading contract;
  // outside debug builds the warm-up is the only use, hence maybe_unused.
  [[maybe_unused]] const SegmentCache& src_cache =
      memory_.plan.segment_cache(memory_.width);

  // --- Layer state: precomputed cross K/V ----------------------------------
  const auto& layers = model_.decoder_layers();
  states_.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    states_[l].cross_k = layers[l].cross_attn().wk().forward(memory_.states);
    states_[l].cross_v = layers[l].cross_attn().wv().forward(memory_.states);
  }
  if (opts_.strategy == DecodeStrategy::kTopK) {
    sample_scratch_.resize(ThreadPool::global().parallelism());
    for (auto& scratch : sample_scratch_) {
      scratch.best.reserve(static_cast<std::size_t>(opts_.top_k));
      scratch.weights.reserve(static_cast<std::size_t>(opts_.top_k));
    }
  }

  // --- One track per segment; handle i is the i-th segment in plan order --
  std::size_t h = 0;
  for (std::size_t r = 0; r < memory_.plan.rows.size(); ++r) {
    const auto& row = memory_.plan.rows[r];
    for (std::size_t si = 0; si < row.segments.size(); ++si) {
      const auto& seg = row.segments[si];
      bind_track(h++, {.request_id = seg.request_id,
                       .row = Row{static_cast<Index>(r)},
                       .slot = seg.slot_index(),
                       .seg_index = static_cast<Index>(si),
                       .src_offset = seg.begin_col(),
                       .src_len = seg.length,
                       .emitted = {}});
    }
  }
}

void DecodeSession::bind_track(std::size_t h, DecodeTrack track) {
  if (h == tracks_.size()) {
    tracks_.emplace_back();
    next_token_.push_back(0);
    track_rng_.emplace_back();
    for (auto& st : states_) {
      st.k_cache.emplace_back();
      st.v_cache.emplace_back();
    }
  } else {
    flush_output(h);
    for (auto& st : states_) {
      st.k_cache[h].clear();
      st.v_cache[h].clear();
    }
  }
  tracks_[h] = std::move(track);
  // Per-request sampling streams: forked by request id so a request draws
  // the same randomness no matter which batch it rides in.
  if (opts_.strategy == DecodeStrategy::kTopK)
    track_rng_[h] = Rng(opts_.sample_seed)
                        .fork(static_cast<std::uint64_t>(tracks_[h].request_id));
  const auto cap = static_cast<std::size_t>(step_cap(tracks_[h]));
  const auto d = static_cast<std::size_t>(model_.config().d_model);
  tracks_[h].emitted.reserve(cap);
  for (auto& st : states_) {
    st.k_cache[h].reserve(cap * d);
    st.v_cache[h].reserve(cap * d);
  }
}

void DecodeSession::flush_output(std::size_t h) {
  auto tokens = std::move(tracks_[h].emitted);
  if (!tokens.empty() && tokens.back() == kEosToken) tokens.pop_back();
  result_.outputs.emplace(tracks_[h].request_id, std::move(tokens));
}

bool DecodeSession::done() const noexcept { return ledger_.done(); }

Index DecodeSession::step_cap(const DecodeTrack& t) const noexcept {
  return opts_.cap_at_source_length ? std::min(max_steps_, t.src_len)
                                    : max_steps_;
}

std::size_t DecodeSession::kv_bytes(std::size_t h) const noexcept {
  std::size_t bytes = 0;
  for (const auto& st : states_)
    bytes += (st.k_cache[h].size() + st.v_cache[h].size()) * sizeof(float);
  return bytes;
}

std::span<const float> DecodeSession::step_logits(std::size_t track) const {
  const auto it = std::find(order_.begin(), order_.end(), track);
  if (it == order_.end() || logits_.empty()) return {};
  const auto vocab = static_cast<std::size_t>(model_.config().vocab_size);
  return {logits_.data() + static_cast<std::size_t>(it - order_.begin()) *
                               vocab,
          vocab};
}

void DecodeSession::plan_slices(std::size_t parallelism) {
  // Each group goes to the slice its midpoint falls in when the active rows
  // are split evenly `parallelism` ways: slices stay contiguous runs of whole
  // groups, balanced by rows, and a group is never split — its members'
  // self-attention reads each other's K/V, which only one thread may write.
  const std::size_t rows = ledger_.unfinished();
  const std::size_t slices = std::min(std::max<std::size_t>(parallelism, 1),
                                      ledger_.groups());
  order_.clear();
  slice_begin_.clear();
  std::size_t last = slices;  // no slice open yet
  ledger_.for_each_group([&](std::span<const std::size_t> group) {
    const std::size_t begin = order_.size();
    for (const auto h : group)
      if (!ledger_.finished(h)) order_.push_back(h);
    const std::size_t slice =
        std::min(slices - 1, (begin + order_.size()) * slices / (2 * rows));
    if (slice != last) slice_begin_.push_back(begin);
    last = slice;
  });
  slice_begin_.push_back(rows);
}

void DecodeSession::run_slice(std::size_t s, const SegmentCache& src_cache) {
  const ModelConfig& cfg = model_.config();
  const Index d = cfg.d_model;
  const Index heads = cfg.n_heads;
  const Index dh = cfg.head_dim();
  const Index vocab = cfg.vocab_size;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  const auto& layers = model_.decoder_layers();
  const std::size_t first = slice_begin_[s];
  const std::size_t* ids = order_.data() + first;
  const Index m = static_cast<Index>(slice_begin_[s + 1] - first);
  const std::size_t md = static_cast<std::size_t>(m * d);

  // Slice activations, all from this thread's arena; `x` carries the layer
  // input and output, `y` the sublayer results between the residual norms.
  WorkspaceScope scope;
  float* x = scope.alloc(md);
  float* y = scope.alloc(md);
  float* q = scope.alloc(md);
  float* k_new = scope.alloc(md);
  float* v_new = scope.alloc(md);
  float* attn = scope.alloc(md);
  float* delta = scope.alloc(md);
  float* hidden = scope.alloc(static_cast<std::size_t>(m * cfg.d_ff));
  const auto rowp = [d](float* base, Index i) { return base + i * d; };
  // LN(delta + res) into `out` — residual add then LayerNorm, row by row.
  const auto residual_norm = [&](const float* res, const DecoderLayer& layer,
                                 int which, float* out) {
    simd::add(delta, res, m * d);
    layer_norm(delta, m, layer.ln_gamma(which), layer.ln_beta(which),
               layer.eps(), out);
  };

  // Input embeddings: previous token (BOS before a track's first step) +
  // separate PE at the track-local position |emitted|. Before any splice all
  // active tracks sit at the same position (== global step index), so this
  // is bitwise what the monolithic loop's shared `Pos{t}` computed; after a
  // splice the per-track position is what keeps each request's numerics
  // independent of when it was admitted.
  for (Index i = 0; i < m; ++i) {
    const DecodeTrack& tr = tracks_[ids[i]];
    const float* emb = model_.embedding().row(
        tr.emitted.empty() ? kBosToken : tr.emitted.back());
    const float* pe = model_.positional_encoding().at(
        Pos{static_cast<Index>(tr.emitted.size())});
    float* row = rowp(x, i);
    for (Index j = 0; j < d; ++j) row[j] = emb[j] + pe[j];
  }

  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DecoderLayer& layer = layers[l];
    LayerState& st = states_[l];

    // ---- Masked self-attention over the group's cached K/V -------------
    // Every member of a group is in this slice, so all of the group's
    // appends for this step land before any member reads the cache. The
    // caches were reserved to the step cap: the append never reallocates.
    layer.self_attn().wq().forward(x, m, q);
    layer.self_attn().wk().forward(x, m, k_new);
    layer.self_attn().wv().forward(x, m, v_new);
    for (Index i = 0; i < m; ++i) {
      const std::size_t a = ids[i];
      st.k_cache[a].insert(st.k_cache[a].end(), rowp(k_new, i),
                           rowp(k_new, i) + d);
      st.v_cache[a].insert(st.v_cache[a].end(), rowp(v_new, i),
                           rowp(v_new, i) + d);
    }

    for (Index i = 0; i < m; ++i) {
      const std::size_t a = ids[i];
      const std::span<const std::size_t> group = ledger_.group(a);
      std::size_t total = 0;
      for (const auto mem : group)
        total += st.k_cache[mem].size() / static_cast<std::size_t>(d);
      // Score scratch, rewound per track (steady-state steps allocate
      // nothing).
      WorkspaceScope track_scope;
      float* scores = track_scope.alloc(total);
      for (Index h = 0; h < heads; ++h) {
        const std::size_t head_off = static_cast<std::size_t>(h) * dh;
        const float* qv = rowp(q, i) + head_off;
        // Scores over every member's cached steps; the redundant
        // cross-request entries are computed, then masked (paper Eq. 5-6
        // applied step-wise).
        std::size_t idx = 0;
        for (const auto mem : group) {
          const auto& kc = st.k_cache[mem];
          const std::size_t steps_m = kc.size() / static_cast<std::size_t>(d);
          // Additive mask: adding kMaskedOut to a score of ordinary
          // magnitude rounds to exactly kMaskedOut, so the foreign entries
          // are computed (the redundancy) yet contribute exactly zero after
          // softmax.
          const float mask_add = mem == a ? 0.0f : kMaskedOut;
          for (std::size_t t = 0; t < steps_m; ++t) {
            const float* kv =
                kc.data() + t * static_cast<std::size_t>(d) + head_off;
            scores[idx++] = simd::dot(qv, kv, dh) * inv_sqrt + mask_add;
          }
        }

        float mx = kMaskedOut;
        for (std::size_t t = 0; t < total; ++t) mx = std::max(mx, scores[t]);
        float sum = 0.0f;
        for (std::size_t t = 0; t < total; ++t) {
          scores[t] = std::exp(scores[t] - mx);
          // Walks only this track's own KV slot in step order — the chain
          // is per-request and pinned by the decode equivalence tests.
          // tcb-lint: allow(raw-fp-accumulation)
          sum += scores[t];
        }
        const float inv = 1.0f / sum;
        float* out = rowp(attn, i) + head_off;
        for (Index c = 0; c < dh; ++c) out[c] = 0.0f;
        // Second walk over the members recovers each score's V row without
        // a parallel pointer array (the arena only holds floats, and the
        // walk order is identical by construction).
        idx = 0;
        for (const auto mem : group) {
          const auto& vc = st.v_cache[mem];
          const std::size_t steps_m = vc.size() / static_cast<std::size_t>(d);
          for (std::size_t t = 0; t < steps_m; ++t)
            simd::axpy(scores[idx++] * inv,
                       vc.data() + t * static_cast<std::size_t>(d) + head_off,
                       out, dh);
        }
      }
    }
    layer.self_attn().wo().forward(attn, m, delta);
    residual_norm(x, layer, 0, y);

    // ---- Cross-attention over the source span ---------------------------
    layer.cross_attn().wq().forward(y, m, q);
    for (Index i = 0; i < m; ++i) {
      const DecodeTrack& tr = tracks_[ids[i]];
      const Index row_base =
          static_cast<Index>(flat_offset(tr.row, Col{0}, memory_.width));
      // Fused cross-attention mask: a track may only attend its own source
      // segment (every other column of the row — other requests' tokens and
      // padding — would be masked to exp == 0), so the kernel walks exactly
      // [src_offset, src_offset + src_len) and skips the score-then-mask
      // sweep entirely. The slotted path's slot always contains the segment.
      const Index span_begin = tr.src_offset.value();
      const Index span = tr.src_len;
      TCB_DCHECK(span > 0 && span_begin >= 0 &&
                     span_begin + span <= memory_.width.value(),
                 "decode: source segment outside the materialized row");
      // Spliced tracks are not in the formation-time plan, so the
      // plan-derived segment table cannot vouch for them.
      TCB_DCHECK(tr.spliced ||
                     src_cache.seg_row(tr.row.value())[span_begin] ==
                         static_cast<std::int32_t>(tr.seg_index),
                 "decode: track's source segment disagrees with the plan");

      WorkspaceScope track_scope;
      float* scores = track_scope.alloc(static_cast<std::size_t>(span));
      for (Index h = 0; h < heads; ++h) {
        const std::size_t head_off = static_cast<std::size_t>(h) * dh;
        const float* qv = rowp(q, i) + head_off;
        for (Index j = 0; j < span; ++j) {
          const float* kv =
              st.cross_k.row(row_base + span_begin + j) + head_off;
          scores[j] = simd::dot(qv, kv, dh) * inv_sqrt;
        }

        float mx = kMaskedOut;
        for (Index j = 0; j < span; ++j) mx = std::max(mx, scores[j]);
        float* out = rowp(attn, i) + head_off;
        for (Index c = 0; c < dh; ++c) out[c] = 0.0f;
        if (mx <= kMaskedOut / 2) continue;  // empty source segment
        float sum = 0.0f;
        for (Index j = 0; j < span; ++j) {
          scores[j] = std::exp(scores[j] - mx);
          // Cross-attention sums span-relative j over the track's own
          // source segment only — per-request chain, pinned numerics.
          // tcb-lint: allow(raw-fp-accumulation)
          sum += scores[j];
        }
        const float inv = 1.0f / sum;
        for (Index j = 0; j < span; ++j) {
          const float w = scores[j] * inv;
          const float* vv =
              st.cross_v.row(row_base + span_begin + j) + head_off;
          simd::axpy(w, vv, out, dh);
        }
      }
    }
    layer.cross_attn().wo().forward(attn, m, delta);
    residual_norm(y, layer, 1, x);

    // ---- Feed-forward ----------------------------------------------------
    layer.ffn().forward(x, m, hidden, delta);
    residual_norm(x, layer, 2, y);
    std::swap(x, y);
  }

  // ---- Logits & next-token selection -------------------------------------
  float* logits = logits_.data() + first * static_cast<std::size_t>(vocab);
  model_.output_projection().forward(x, m, logits);
  for (Index i = 0; i < m; ++i) {
    const std::size_t a = ids[i];
    const float* row = logits + i * vocab;
    if (opts_.strategy == DecodeStrategy::kGreedy) {
      Index best = 0;  // first maximum, like argmax_rows
      for (Index v = 1; v < vocab; ++v)
        if (row[v] > row[best]) best = v;
      next_token_[a] = best;
    } else {
      SampleScratch& scratch = sample_scratch_[s];
      next_token_[a] = sample_top_k(row, vocab, opts_.top_k, opts_.temperature,
                                    track_rng_[a], scratch.best,
                                    scratch.weights);
    }
  }
}

DecodeStepOutcome DecodeSession::step() {
  TCB_CHECK(!done(), "DecodeSession::step called when done");
  ThreadPool& pool = ThreadPool::global();
  plan_slices(pool.parallelism());
  step_count_ += 1;
  result_.steps = step_count_;

  // Source mask geometry (debug-checked in the slices); the build was warmed
  // in the constructor, so this is the lock-free published-pointer fast
  // path.
  const SegmentCache& src_cache = memory_.plan.segment_cache(memory_.width);

  // Every active track appends one K and one V row per layer this step.
  // Caches only grow within a step, so the peak is read once, after all
  // appends, exactly as a per-layer running maximum would read it.
  const std::size_t d = static_cast<std::size_t>(model_.config().d_model);
  cur_kv_bytes_ +=
      order_.size() * states_.size() * 2 * d * sizeof(float);
  result_.peak_kv_bytes = std::max(result_.peak_kv_bytes, cur_kv_bytes_);

  // The one parallel region of the step: each slice runs embedding, every
  // layer and token selection on one thread; nested ops run inline.
  logits_.resize(order_.size() *
                 static_cast<std::size_t>(model_.config().vocab_size));
  const std::size_t slices = slice_begin_.size() - 1;
  pool.parallel_for(slices, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) run_slice(s, src_cache);
  });

  // ---- Track bookkeeping and slot releases (coordinating thread) --------
  DecodeStepOutcome outcome;
  ledger_.step(
      [&](std::size_t h) {
        DecodeTrack& track = tracks_[h];
        const Index token = next_token_[h];
        track.emitted.push_back(token);
        if (token != kEosToken &&
            static_cast<Index>(track.emitted.size()) < step_cap(track))
          return false;
        track.finished = true;
        outcome.finished.push_back(track.request_id);
        // The track's caches stop growing now: these bytes are what an ideal
        // per-request cleaner could reclaim from here on, whether or not the
        // scheme's group-granular cleaning can.
        result_.reclaimable_kv_bytes += kv_bytes(h);
        return true;
      },
      // Early cleaning (§4.2.2) frees the released slot's K/V now; otherwise
      // it stays counted resident until a splice reuses the slot.
      [&](std::size_t slot, std::span<const std::size_t> members) {
        std::size_t bytes = 0;
        for (const auto h : members) bytes += kv_bytes(h);
        if (!ledger_.slotted() || !opts_.early_memory_cleaning) {
          held_kv_bytes_[slot] = bytes;
          return;
        }
        cur_kv_bytes_ -= bytes;
        result_.early_freed_bytes += bytes;
        // Swap with an empty vector: assigning {} would clear the cache but
        // keep its step-cap reservation allocated until the handle is reused.
        for (const auto h : members)
          for (auto& st : states_) {
            std::vector<float>().swap(st.k_cache[h]);
            std::vector<float>().swap(st.v_cache[h]);
          }
      },
      outcome.released);
  return outcome;
}

void DecodeSession::splice(Row row, Slot slot, Col begin, Index width,
                           const std::vector<Request>& reqs) {
  TCB_CHECK(!reqs.empty(), "splice: empty request list");
  TCB_CHECK(row >= Row{0} &&
                static_cast<std::size_t>(row.value()) < memory_.plan.rows.size(),
            "splice: row outside the plan");
  const RowLayout& plan_row =
      memory_.plan.rows[static_cast<std::size_t>(row.value())];
  TCB_CHECK(width > 0 && begin.value() >= 0 &&
                begin.value() + width <= plan_row.width,
            "splice: span outside the row");
  Index total_len = 0;
  for (const auto& req : reqs) {
    TCB_CHECK(req.length > 0 && !req.tokens.empty() &&
                  static_cast<Index>(req.tokens.size()) == req.length,
              "splice: request must carry its tokens");
    total_len += req.length;
  }
  TCB_CHECK(total_len <= width, "splice: requests overflow the slot span");

  // The ledger rejects a slot with live tracks, then binds the cohort as a
  // new group over the span. The previous group's caches — still counted
  // when early cleaning is off or the scheme is unslotted — are dead the
  // moment the slot is reused: they count as freed before batch completion.
  std::vector<RequestId> ids;
  ids.reserve(reqs.size());
  for (const auto& req : reqs) ids.push_back(req.id);
  const std::span<const std::size_t> handles =
      ledger_.admit(row, slot, begin, width, ids);
  std::size_t& held = held_kv_bytes_[ledger_.slot_index(row, slot)];
  cur_kv_bytes_ -= held;
  result_.early_freed_bytes += held;
  held = 0;

  // Mini-encode the spliced requests alone, as one concatenated row. With
  // separate PE + segment mask each request's encoded states are bitwise
  // identical to a solo encode (Seq2SeqModel::encode's TCB_BITWISE
  // contract), so splicing cannot perturb any request's numerics.
  const BatchPlan mini =
      ConcatBatcher().build(reqs, Row{1}, Col{total_len}).plan;

  // Always encode the mini plan in pure-concat mode: the plan above carries
  // no slot grid (slot_len 0), and under separate PE + segment masking the
  // encode is bitwise identical to solo encodes in either mode anyway.
  const InferenceOptions enc_opts{
      .mode = AttentionMode::kPureConcat,
      .separate_positional_encoding = opts_.separate_positional_encoding,
      .mask_policy = opts_.mask_policy};
  const EncoderMemory mini_mem =
      model_.encode(pack_batch(mini, reqs), enc_opts);
  TCB_CHECK(mini_mem.width.value() == total_len,
            "splice: mini-encode width mismatch");

  // Write the cohort's encoder states and every layer's cross K/V straight
  // into the vacated span — contiguous rows of the batch — as one more
  // row-split region. Stale columns beyond total_len are never read:
  // cross-attention walks exactly each track's [src_offset, src_offset +
  // src_len).
  const Index d = model_.config().d_model;
  const Index dest_base =
      static_cast<Index>(flat_offset(row, begin, memory_.width));
  const auto& layers = model_.decoder_layers();
  float* states = memory_.states.row(dest_base);
  parallel_for(
      static_cast<std::size_t>(total_len),
      [&](std::size_t b, std::size_t e) {
        const auto first = static_cast<Index>(b);
        const auto m = static_cast<Index>(e - b);
        const float* src = mini_mem.states.row(first);
        std::memcpy(states + first * d, src,
                    static_cast<std::size_t>(m * d) * sizeof(float));
        for (std::size_t l = 0; l < layers.size(); ++l) {
          const MultiHeadAttention& cross = layers[l].cross_attn();
          cross.wk().forward(src, m, states_[l].cross_k.row(dest_base + first));
          cross.wv().forward(src, m, states_[l].cross_v.row(dest_base + first));
        }
      },
      static_cast<std::size_t>(kEncoderChunkRows));

  // One fresh track per request on the cohort's handles: their
  // self-attention group is exactly the spliced cohort.
  Index cursor = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // seg_index: not in the plan; unused for spliced tracks.
    bind_track(handles[i], {.request_id = reqs[i].id,
                            .row = row,
                            .slot = ledger_.slotted() ? slot : Slot{0},
                            .src_offset = Col{begin.value() + cursor},
                            .src_len = reqs[i].length,
                            .emitted = {},
                            .spliced = true});
    cursor += reqs[i].length;
  }
}

DecodeResult DecodeSession::take_result() {
  TCB_CHECK(done(), "DecodeSession::take_result before completion");
  for (std::size_t h = 0; h < tracks_.size(); ++h) flush_output(h);
  return std::move(result_);
}

DecodeResult greedy_decode(const Seq2SeqModel& model,
                           const EncoderMemory& memory,
                           const DecodeOptions& opts) {
  DecodeSession session(model, memory, opts);
  while (!session.done()) session.step();
  return session.take_result();
}

}  // namespace tcb
