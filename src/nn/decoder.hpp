// Auto-regressive decoder with concat-aware, resumable decoding.
//
// Each request placed in the encoder batch gets a decode "track". Tracks in
// the same row (pure ConcatBatching) or the same slot (slotted) form a group:
// a track's self-attention and cross-attention compute scores over the whole
// group's cached keys / source span — exactly the redundant computation the
// paper describes — and a segment mask removes the foreign contributions
// before softmax. The slotted path's groups are smaller, which is where its
// decoder-side saving comes from. Group membership, slot releases and track
// handles live in a SlotLedger (batching/slot_ledger.hpp); the session keeps
// each handle's payload.
//
// Decoding is driven through DecodeSession: one explicit step() per decoder
// iteration over persistent per-track K/V cache state, so a batch can be
// suspended between iterations, finished slots can be released to a
// SlotAllocator, and newly-admitted requests can be spliced into vacated
// slots mid-batch (continuous iteration-level batching, DESIGN.md §15).
// greedy_decode() survives as the run-to-completion wrapper: construct a
// session, step it dry, take the result — bitwise identical to the old
// monolithic loop (tests/nn/decode_session_test.cpp freezes that).
//
// A step is ONE parallel region (paper §4.2 / Fig. 7: different slots run
// their attention in parallel). The active tracks are cut into at most
// ThreadPool::parallelism() slices, each made only of whole groups, and each
// slice runs the entire step — embedding, every decoder layer, logits and
// token selection — on one thread, with every op it nests running inline.
// A group's self-attention reads only its members' K/V, so no slice ever
// reads state another slice writes. Per-slice activations live in that
// thread's Workspace arena and every track's K/V storage is reserved to its
// step cap when the track is created, so a warmed step allocates nothing on
// pool threads. Every kernel a slice runs is row-wise with a fixed
// per-element chain (tensor/gemm.cpp's contract), so tokens and logits are
// bitwise independent of how the tracks are sliced.
//
// Early memory cleaning (paper §4.2.2): under the slotted scheme, when every
// track of a slot has finished, that slot's K/V caches are released
// immediately; under pure ConcatBatching request data cannot be separated
// from the row tensor, so caches are only released when the whole batch
// completes. The decoder accounts peak, early-freed, and reclaimable KV
// bytes (bytes whose track had finished but that the scheme could not free
// early) so the difference — and the honesty gap between "could free" and
// "did free" — is measurable per scheme.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "batching/request.hpp"
#include "batching/slot_ledger.hpp"
#include "nn/attention.hpp"
#include "nn/feed_forward.hpp"
#include "nn/model_config.hpp"
#include "util/lifetime.hpp"

namespace tcb {

class Seq2SeqModel;

/// Encoded source batch — the decoder's input. Lives here (not model.hpp)
/// because DecodeSession owns one by value; Seq2SeqModel::encode() produces
/// it.
struct EncoderMemory {
  Tensor states;   ///< (rows * width, d_model)
  BatchPlan plan;  ///< source layout
  Col width{0};    ///< materialized width of the encoded batch
};

class DecoderLayer {
 public:
  DecoderLayer(const ModelConfig& cfg, Rng& rng);

  [[nodiscard]] const MultiHeadAttention& self_attn() const noexcept
      TCB_LIFETIME_BOUND {
    return self_attn_;
  }
  [[nodiscard]] const MultiHeadAttention& cross_attn() const noexcept
      TCB_LIFETIME_BOUND {
    return cross_attn_;
  }
  [[nodiscard]] const FeedForward& ffn() const noexcept TCB_LIFETIME_BOUND {
    return ffn_;
  }
  [[nodiscard]] const Tensor& ln_gamma(int which) const TCB_LIFETIME_BOUND {
    return ln_gamma_.at(static_cast<std::size_t>(which));
  }
  [[nodiscard]] const Tensor& ln_beta(int which) const TCB_LIFETIME_BOUND {
    return ln_beta_.at(static_cast<std::size_t>(which));
  }
  [[nodiscard]] float eps() const noexcept { return eps_; }

 private:
  MultiHeadAttention self_attn_;
  MultiHeadAttention cross_attn_;
  FeedForward ffn_;
  std::vector<Tensor> ln_gamma_, ln_beta_;  ///< three LayerNorms
  float eps_;
};

/// One request's decoding state. The source coordinates carry their axis in
/// the type: mixing up the batch row, the slot, and the column offset of a
/// track is exactly the kind of swap that used to type-check.
struct DecodeTrack {
  RequestId request_id = -1;
  Row row{0};             ///< batch row in the source plan
  Slot slot{0};           ///< slot within the row (0 when unslotted)
  Index seg_index = 0;    ///< index of the request's segment within the row
  Col src_offset{0};      ///< source span start (columns)
  Index src_len = 0;
  std::vector<Index> emitted;
  bool finished = false;
  /// True for tracks admitted by DecodeSession::splice(); their source
  /// segment is not in the formation-time plan, so plan-derived debug checks
  /// are skipped for them.
  bool spliced = false;
};

struct DecodeResult {
  /// Generated token ids per request (EOS, if produced, is trimmed).
  std::unordered_map<RequestId, std::vector<Index>> outputs;
  Index steps = 0;
  /// Peak bytes of K/V cache held simultaneously, under the scheme's
  /// memory-cleaning policy.
  std::size_t peak_kv_bytes = 0;
  /// Bytes released before the batch completed (slotted early cleaning).
  std::size_t early_freed_bytes = 0;
  /// Bytes that *became eligible* for release before the batch completed
  /// (their track had emitted its last token) — whether or not the scheme
  /// could actually free them. early_freed_bytes / reclaimable_kv_bytes is
  /// the honest per-scheme reclamation ratio: 0 for pure concat and naive
  /// rows (caches die only with the whole batch), 1 for slotted early
  /// cleaning at slot granularity.
  std::size_t reclaimable_kv_bytes = 0;
};

/// Next-token selection rule.
enum class DecodeStrategy : std::uint8_t {
  kGreedy,  ///< argmax (deterministic)
  kTopK,    ///< sample from the top-k logits with temperature
};

struct DecodeOptions {
  AttentionMode mode = AttentionMode::kPureConcat;
  Index max_steps = 32;
  DecodeStrategy strategy = DecodeStrategy::kGreedy;
  Index top_k = 4;           ///< kTopK: candidate pool size
  float temperature = 1.0f;  ///< kTopK: logit temperature (> 0)
  /// kTopK: base seed; each request gets its own deterministic stream
  /// (forked by request id), so sampled outputs are identical no matter how
  /// the request is batched — the equivalence property extends to sampling.
  std::uint64_t sample_seed = 1;
  bool early_memory_cleaning = false;  ///< effective under kSlotted only
  /// Translation-style budget: request n decodes at most min(max_steps,
  /// src_len(n)) tokens, so requests finish at different times (what makes
  /// early memory cleaning effective — paper §4.2.2's observation that
  /// "inference results of requests in a batch are generated at different
  /// time").
  bool cap_at_source_length = false;
  /// Options for the mini-encode DecodeSession::splice() runs for spliced
  /// requests (must match how the original batch was encoded; the defaults
  /// are TCB's correct configuration).
  bool separate_positional_encoding = true;
  MaskPolicy mask_policy = MaskPolicy::kSegment;
};

/// What one decoder iteration produced, beyond the cached state.
struct DecodeStepOutcome {
  /// Requests that emitted their final token during this iteration.
  std::vector<RequestId> finished;
  /// Slots whose last track finished during this iteration (their K/V caches
  /// are additionally freed when early cleaning is active).
  std::vector<SlotRelease> released;
};

/// Resumable decoding over an encoded batch: one step() per decoder
/// iteration, with slot release events out and mid-batch request splicing
/// in. The session owns its EncoderMemory (splicing mutates the encoded
/// states in place).
///
/// Driving a session to completion is bitwise identical to the frozen
/// monolithic decode loop: token selection, KV byte accounting and step
/// count all match exactly (tests/nn/decode_session_test.cpp). Splicing
/// preserves the paper's concat-equivalence invariant: a spliced request's
/// tokens are bitwise identical to decoding it alone, because its encode is
/// span-relative and its group never mixes unmasked foreign state.
class DecodeSession {
 public:
  /// `model` must outlive the session; `memory` is consumed.
  DecodeSession(const Seq2SeqModel& model, EncoderMemory memory,
                DecodeOptions opts);
  ~DecodeSession() = default;

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  /// True when no track is active (every emitted list is final).
  [[nodiscard]] bool done() const noexcept;
  /// Iterations run so far (== DecodeResult::steps at completion).
  [[nodiscard]] Index steps() const noexcept { return step_count_; }
  /// Tracks by ledger handle. A handle keeps its track readable until a
  /// splice rebinds it; a free handle reads `finished == true`. The size is
  /// the peak number of tracks held at once, not the number ever admitted.
  [[nodiscard]] const std::vector<DecodeTrack>& tracks() const noexcept
      TCB_LIFETIME_BOUND {
    return tracks_;
  }
  /// Group membership and admission order of the handles.
  [[nodiscard]] const SlotLedger& ledger() const noexcept TCB_LIFETIME_BOUND {
    return ledger_;
  }
  /// K/V bytes currently resident (for occupancy reporting).
  [[nodiscard]] std::size_t live_kv_bytes() const noexcept {
    return cur_kv_bytes_;
  }

  /// Runs one decoder iteration over every active track. Must not be called
  /// when done().
  DecodeStepOutcome step();

  /// The vocabulary logits the track at handle `track` got in the most
  /// recent step(); empty when it was not active in it (or no step has run).
  [[nodiscard]] std::span<const float> step_logits(std::size_t track) const
      TCB_LIFETIME_BOUND;

  /// Splices `reqs` into the vacated span [begin, begin + width) of `row`:
  /// encodes them alone (separate PE, segment mask — so their states are
  /// bitwise what any batch would produce), overwrites the span's encoder
  /// states and cross-K/V, and admits one fresh decode track per request as
  /// a new group, on handles freed by earlier releases where there are any.
  /// The slot must have been released (or never occupied) and the requests'
  /// total length must fit `width`. Requests must carry tokens.
  void splice(Row row, Slot slot, Col begin, Index width,
              const std::vector<Request>& reqs);

  /// Final outputs and accounting; the session must be done(). Call once.
  [[nodiscard]] DecodeResult take_result();

 private:
  /// Per-decoder-layer mutable state.
  struct LayerState {
    std::vector<std::vector<float>> k_cache;  ///< per handle, [step][d]
    std::vector<std::vector<float>> v_cache;
    Tensor cross_k;  ///< (src_rows * src_width, d), computed once
    Tensor cross_v;
  };

  /// Per-slice top-k sampling scratch, reserved up front so sampling on a
  /// pool thread never allocates.
  struct SampleScratch {
    std::vector<Index> best;
    std::vector<double> weights;
  };

  /// Fills order_ with the active tracks, whole groups contiguous, and cuts
  /// it into at most `parallelism` slices of whole groups (slice_begin_).
  void plan_slices(std::size_t parallelism);
  /// Runs the whole step for slice `s` on the calling thread.
  void run_slice(std::size_t s, const SegmentCache& src_cache);
  /// Binds handle `h` to `track` (a reused handle first hands its previous
  /// track's tokens to the result) and reserves its emitted list and K/V
  /// caches to the step cap: appends on pool threads never reallocate.
  void bind_track(std::size_t h, DecodeTrack track);
  /// Moves handle `h`'s emitted tokens into the result (EOS trimmed).
  void flush_output(std::size_t h);
  /// Tokens track `t` may emit at most (its step cap).
  [[nodiscard]] Index step_cap(const DecodeTrack& t) const noexcept;
  /// Bytes of handle `h`'s K/V caches.
  [[nodiscard]] std::size_t kv_bytes(std::size_t h) const noexcept;

  const Seq2SeqModel& model_;
  EncoderMemory memory_;
  DecodeOptions opts_;
  SlotLedger ledger_;
  Index max_steps_ = 0;
  std::vector<DecodeTrack> tracks_;  ///< per handle
  std::vector<LayerState> states_;   ///< one per decoder layer
  std::vector<Rng> track_rng_;       ///< per handle, kTopK request streams
  std::vector<Index> next_token_;    ///< per handle, written by slices
  /// Per grid slot: K/V bytes of its released group still counted resident
  /// (no early cleaning) until a splice reuses the slot.
  std::vector<std::size_t> held_kv_bytes_;
  // Per-step slicing, rebuilt by plan_slices() on the coordinating thread.
  std::vector<std::size_t> order_;        ///< active handles, groups contiguous
  std::vector<std::size_t> slice_begin_;  ///< order_ offsets, slices + 1
  std::vector<float> logits_;             ///< (order_.size(), vocab)
  std::vector<SampleScratch> sample_scratch_;  ///< one per slice (kTopK)
  std::size_t cur_kv_bytes_ = 0;
  Index step_count_ = 0;
  DecodeResult result_;
};

/// Runs greedy decoding for every request of an encoded batch
/// (run-to-completion wrapper over DecodeSession).
[[nodiscard]] DecodeResult greedy_decode(const Seq2SeqModel& model,
                                         const EncoderMemory& memory,
                                         const DecodeOptions& opts);

}  // namespace tcb
