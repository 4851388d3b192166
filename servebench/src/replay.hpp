// Layer-by-layer replay of captured batches through the engine's public
// nn/tensor functions: pack_batch -> Seq2SeqModel::encode ->
// DecodeSession::step, then the public pieces of those calls (encoder
// attention, FFN and LayerNorm on a weight-identical replica of the encoder;
// the decoder's Linear/FeedForward/LayerNorm/logits at the exact per-step
// shapes). What the pieces do not cover of a decode step is the hand-rolled
// attention and glue inside DecodeSession::step.
#pragma once

#include <cstddef>
#include <vector>

#include "probe.hpp"
#include "serving/cost_model.hpp"

namespace servebench {

struct ReplayStats {
  std::size_t batches = 0;
  bool encode_exact = true;  ///< replica encoder == Seq2SeqModel::encode
  // Per replayed batch, mean milliseconds.
  double pack_ms = 0;
  double encode_ms = 0;
  double decode_ms = 0;      ///< DecodeSession ctor (cross K/V) + steps
  double enc_attn_ms = 0;
  double enc_ffn_ms = 0;
  double layernorm_ms = 0;   ///< encoder and decoder LayerNorms
  double dec_proj_ms = 0;    ///< self Q/K/V/O, cross Q/O, cross K/V
  double dec_ffn_ms = 0;
  double logits_ms = 0;      ///< output projection + argmax
  double dec_attn_rest_ms = 0;
  double gemm_gflops = 0;    ///< computed decoder projection flops / time
  double attn_score_entries = 0;  ///< score_entries() per head and layer
  double active_tracks_mean = 0;
  /// decode / (encode + decode), measured by the replay.
  double decode_share = 0;
  /// The analytical model's decoder seconds / its total for the same plans.
  double cost_model_decode_share = 0;
  std::vector<double> prologue_ms;  ///< pack + encode, per batch
};

/// Replays up to `max_batches` of `captured`, spread evenly over the run.
/// `spans` may be null.
[[nodiscard]] ReplayStats replay(const tcb::Seq2SeqModel& model,
                                 const tcb::AnalyticalCostModel& cost,
                                 const tcb::InferenceOptions& opts,
                                 const std::vector<tcb::BatchWork>& captured,
                                 std::size_t max_batches,
                                 SpanRecorder* spans);

/// The analytical decoder share alone, for workloads without an engine.
[[nodiscard]] double cost_model_decode_share(
    const tcb::AnalyticalCostModel& cost,
    const std::vector<tcb::BatchWork>& captured);

}  // namespace servebench
