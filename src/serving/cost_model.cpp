#include "serving/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "batching/packed_batch.hpp"
#include "nn/attention.hpp"
#include "util/timer.hpp"

namespace tcb {

AnalyticalCostModel::AnalyticalCostModel(ModelConfig model, HardwareProfile hw)
    : model_(model), hw_(hw) {
  model_.validate();
}

StepTrackState track_state(Scheme scheme, Index length, Index span,
                           Index max_width) noexcept {
  StepTrackState st;
  if (scheme == Scheme::kConcatSlotted || scheme == Scheme::kConcatPure) {
    st.decode_len = length;
    st.context = static_cast<double>(span);
  } else {
    st.decode_len = max_width;  // rectangular padded tensor
    st.context = static_cast<double>(max_width);
  }
  return st;
}

std::vector<StepTrackState> AnalyticalCostModel::decode_track_states(
    const BatchPlan& plan) const {
  std::vector<StepTrackState> tracks;
  if (plan.empty()) return tracks;
  const Index width = plan.max_width();
  for (const auto& row : plan.rows) {
    const Index span = plan.scheme == Scheme::kConcatSlotted
                           ? plan.effective_slot_len(row)
                           : row.width;
    for (const auto& seg : row.segments)
      tracks.push_back(track_state(plan.scheme, seg.length, span, width));
  }
  return tracks;
}

DecodeStepCost AnalyticalCostModel::decode_step_cost(
    const std::vector<StepTrackState>& tracks,
    const SplicePrefill& staged) const {
  const double d = static_cast<double>(model_.d_model);
  const double dff = static_cast<double>(model_.d_ff);
  const double dh = static_cast<double>(model_.head_dim());
  const double heads = static_cast<double>(model_.n_heads);
  const double vocab = static_cast<double>(model_.vocab_size);
  const double n_dec = static_cast<double>(model_.n_decoder_layers);
  // Per generated token: self qkv+o (8 d^2) + cross q,o (4 d^2) + FFN, plus
  // the final vocabulary projection.
  const double per_token_lin =
      n_dec * (12.0 * d * d + 4.0 * d * dff) + 2.0 * d * vocab;
  const double attn_entry_flops = heads * (4.0 * dh + 4.0);

  DecodeStepCost cost;
  double attn_flops = 0.0;
  for (const auto& track : tracks) {
    if (track.finished()) continue;
    cost.active += 1.0;
    // Self-attention over the cached group context (grows with the track's
    // position, bounded by the context width) + cross-attention over the
    // source span.
    const double self_ctx =
        std::min(static_cast<double>(track.steps_done + 1), track.context);
    attn_flops += n_dec * attn_entry_flops * (self_ctx + track.context);
  }
  if (cost.active == 0.0) return cost;
  // Fused kernel: the decode tokens plus any staged spliced prefill run as
  // one launch, so the prefill both shares the step's overhead and lifts the
  // utilization every token in the kernel sees. With an empty staging the
  // added zeros leave the plain decode pricing bit-identical.
  const double step_flops = cost.active * per_token_lin + attn_flops +
                            staged.linear_flops + staged.attention_flops;
  cost.linear_flops = cost.active * per_token_lin + staged.linear_flops;
  cost.attention_flops = attn_flops + staged.attention_flops;
  const double in_flight = cost.active + staged.tokens;
  cost.seconds = hw_.step_overhead +
                 step_flops / (hw_.peak_flops * hw_.utilization(in_flight));
  return cost;
}

double AnalyticalCostModel::encode_seconds(const BatchPlan& plan) const {
  return plan.empty() ? 0.0 : encoder_cost(plan).encoder_seconds;
}

CostBreakdown AnalyticalCostModel::encoder_cost(const BatchPlan& plan) const {
  const double d = static_cast<double>(model_.d_model);
  const double dff = static_cast<double>(model_.d_ff);
  const double dh = static_cast<double>(model_.head_dim());
  const double heads = static_cast<double>(model_.n_heads);
  const double n_enc = static_cast<double>(model_.n_encoder_layers);
  const Index width = plan.max_width();
  const double rows = static_cast<double>(plan.rows.size());
  const double lin_tokens = rows * static_cast<double>(width);
  const bool slotted = plan.scheme == Scheme::kConcatSlotted;
  CostBreakdown out;
  // Projections (Q,K,V,O = 4 GEMMs) + FFN per materialized token.
  out.encoder_linear_flops =
      lin_tokens * n_enc * (8.0 * d * d + 4.0 * d * dff);
  // Attention over exactly the score entries the mode computes.
  const double entries = static_cast<double>(score_entries(
      plan, Col{width},
      slotted ? AttentionMode::kSlotted : AttentionMode::kPureConcat));
  out.encoder_attention_flops = n_enc * entries * heads * (4.0 * dh + 4.0);
  out.encoder_seconds = out.encoder_linear_flops + out.encoder_attention_flops;
  out.encoder_seconds /= hw_.peak_flops * hw_.utilization(lin_tokens);
  return out;
}

SplicePrefill AnalyticalCostModel::splice_prefill(Index total_len) const {
  SplicePrefill out;
  if (total_len <= 0) return out;
  const double d = static_cast<double>(model_.d_model);
  const double dff = static_cast<double>(model_.d_ff);
  const double dh = static_cast<double>(model_.head_dim());
  const double heads = static_cast<double>(model_.n_heads);
  const double n_enc = static_cast<double>(model_.n_encoder_layers);
  const double n_dec = static_cast<double>(model_.n_decoder_layers);
  const double tokens = static_cast<double>(total_len);
  // Single-row mini-encode: full-row attention (the spliced cohort is one
  // pure-concat row) + the spliced span's cross-K/V projection into the live
  // session's layer states. Pricing a dedicated launch at mini-row-alone
  // utilization would make every splice cost more than a full
  // run-to-completion service and defeat continuous batching outright;
  // instead the backend stages this bill and decode_step_cost fuses it into
  // the next iteration's kernel.
  out.tokens = tokens;
  out.linear_flops = tokens * n_enc * (8.0 * d * d + 4.0 * d * dff) +
                     tokens * n_dec * 4.0 * d * d;
  out.attention_flops = n_enc * tokens * tokens * heads * (4.0 * dh + 4.0);
  return out;
}

CostBreakdown AnalyticalCostModel::breakdown(const BatchPlan& plan) const {
  if (plan.empty()) return {};
  CostBreakdown out = encoder_cost(plan);
  const double d = static_cast<double>(model_.d_model);
  const double n_dec = static_cast<double>(model_.n_decoder_layers);
  const double lin_tokens = static_cast<double>(plan.rows.size()) *
                            static_cast<double>(plan.max_width());

  // --- Decoder -------------------------------------------------------------
  // Stepped: price each iteration with decode_step_cost until every track
  // retires — the identical loop continuous batching drives one event at a
  // time, so run-to-completion and stepped pricing agree bit-for-bit.
  out.decoder_linear_flops += lin_tokens * n_dec * 4.0 * d * d;  // cross K/V
  std::vector<StepTrackState> tracks = decode_track_states(plan);
  double dec_seconds = 0.0;
  for (;;) {
    const DecodeStepCost step = decode_step_cost(tracks);
    if (step.active == 0.0) break;
    out.decoder_linear_flops += step.linear_flops;
    out.decoder_attention_flops += step.attention_flops;
    dec_seconds += step.seconds;
    for (auto& track : tracks)
      if (!track.finished()) track.steps_done += 1;
  }
  out.decoder_seconds = dec_seconds;
  out.overhead_seconds = hw_.batch_overhead;
  return out;
}

double AnalyticalCostModel::batch_seconds(const BatchPlan& plan) const {
  return breakdown(plan).total_seconds();
}

MeasuredCostModel::MeasuredCostModel(std::shared_ptr<const Seq2SeqModel> model,
                                     Index max_decode_steps)
    : model_(std::move(model)), max_decode_steps_(max_decode_steps) {
  if (!model_) throw std::invalid_argument("MeasuredCostModel: null model");
}

double MeasuredCostModel::batch_seconds(const BatchPlan& plan) const {
  if (plan.empty()) return 0.0;

  // Synthesize deterministic token payloads matching the plan's lengths.
  std::vector<Request> requests;
  Rng rng(0xC0FFEEULL);
  for (const auto& row : plan.rows) {
    for (const auto& seg : row.segments) {
      Request req;
      req.id = seg.request_id;
      req.length = seg.length;
      req.tokens.reserve(static_cast<std::size_t>(seg.length));
      for (Index i = 0; i < seg.length; ++i)
        req.tokens.push_back(rng.uniform_int(
            kFirstWordToken, model_->config().vocab_size - 1));
      requests.push_back(std::move(req));
    }
  }
  const PackedBatch packed = pack_batch(plan, requests);

  InferenceOptions opts;
  opts.mode = plan.scheme == Scheme::kConcatSlotted ? AttentionMode::kSlotted
                                                    : AttentionMode::kPureConcat;
  opts.max_decode_steps = max_decode_steps_;
  opts.early_memory_cleaning = plan.scheme == Scheme::kConcatSlotted;

  // Wall-clock measurement is this function's purpose (cost-model calibration).
  // tcb-lint: allow(no-wall-clock-in-sched)
  const Timer timer;
  const InferenceResult result = model_->infer(packed, opts);
  (void)result;
  return timer.elapsed_seconds();
}

}  // namespace tcb
