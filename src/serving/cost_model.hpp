// Batch-inference time models.
//
// The paper's serving experiments run 40-1500 req/s against a V100; this
// reproduction replaces the GPU with (a) the real CPU engine for
// kernel-level experiments (Figs. 13/14/16) and (b) an analytical cost model
// for serving-scale simulations (Figs. 9-12, 15). The analytical model
// prices a BatchPlan from first principles:
//
//   * encoder: GEMM flops over every materialized token (padding included —
//     that is NaiveBatching's waste) + attention flops over exactly the
//     score entries the execution mode computes (full rows for pure concat,
//     per-slot blocks for slotted — the paper's Fig. 6 vs Fig. 7);
//   * decoder: auto-regressive, step by step. Per step, the active rows pay
//     projection/FFN flops plus attention over their context width (padded
//     row width for naive/turbo, used row width for pure concat, slot width
//     for slotted). Naive/turbo implementations keep the whole rectangular
//     tensor alive until the longest request finishes; concat tracks retire
//     individually.
//   * hardware: seconds = flops / (peak * util(active tokens)), where
//     util(x) = util_max * x / (x + half_sat) captures the
//     launch-utilization effect that makes small decode steps slow on real
//     accelerators, plus fixed per-batch and per-step overheads.
//
// The MeasuredCostModel wraps the real engine; tests validate that the
// analytical model ranks plans the same way the engine does.
#pragma once

#include <memory>

#include "batching/batch_plan.hpp"
#include "nn/model.hpp"
#include "util/lifetime.hpp"

namespace tcb {

class CostModel {
 public:
  virtual ~CostModel() = default;
  /// Inference seconds for one batch. Empty plans cost 0.
  [[nodiscard]] virtual double batch_seconds(const BatchPlan& plan) const = 0;
};

struct HardwareProfile {
  // Calibrated so the paper-scale serving benches land near the paper's
  // operating points: TNB/TTB saturate around 300-400 req/s, TCB sustains
  // ~450, and the post-saturation throughput gaps are ~2.2x (vs TNB) and
  // ~1.5x (vs TTB). See EXPERIMENTS.md for the calibration runs.
  double peak_flops = 14e12;    ///< fp32 peak of the modeled accelerator
  double util_max = 0.12;       ///< best-case sustained fraction of peak
  double half_sat_tokens = 150; ///< tokens in flight at half utilization
  double batch_overhead = 2e-3; ///< seconds per batch (launch, H2D, ...)
  double step_overhead = 2e-4;  ///< seconds per decode step

  /// V100-like profile used by all paper-reproduction benches.
  [[nodiscard]] static HardwareProfile v100_like() { return {}; }

  [[nodiscard]] double utilization(double active_tokens) const noexcept {
    return util_max * active_tokens / (active_tokens + half_sat_tokens);
  }
};

struct CostBreakdown {
  double encoder_linear_flops = 0;
  double encoder_attention_flops = 0;
  double decoder_linear_flops = 0;
  double decoder_attention_flops = 0;
  double encoder_seconds = 0;
  double decoder_seconds = 0;
  double overhead_seconds = 0;

  [[nodiscard]] double total_flops() const noexcept {
    return encoder_linear_flops + encoder_attention_flops +
           decoder_linear_flops + decoder_attention_flops;
  }
  [[nodiscard]] double total_seconds() const noexcept {
    return encoder_seconds + decoder_seconds + overhead_seconds;
  }
};

/// State of one decode track as the analytical model steps it — the priced
/// mirror of a DecodeSession track. `decode_len` is how many tokens the
/// track will emit (the model's translation-style assumption: as many as its
/// input length; a full rectangular width for naive/turbo, which is exactly
/// their waste), `context` the attention context width its scheme pays for.
struct StepTrackState {
  Index decode_len = 0;
  Index steps_done = 0;
  double context = 0;

  [[nodiscard]] bool finished() const noexcept {
    return steps_done >= decode_len;
  }
};

/// The per-track rule, for formation and spliced tracks alike. A concat
/// track decodes as many tokens as its request has (`length`, the
/// translation-style assumption) and attends over `span`: its slot under
/// slotted, its row under pure concat, or the span it was spliced into. A
/// naive/turbo track steps through and attends over the batch's whole padded
/// width, `max_width`, until the longest row finishes.
[[nodiscard]] StepTrackState track_state(Scheme scheme, Index length,
                                         Index span, Index max_width) noexcept;

/// Price of one decoder iteration over a set of (possibly partially
/// finished) tracks — the unit continuous batching schedules around.
struct DecodeStepCost {
  double seconds = 0;          ///< step_overhead + flops at util(active)
  double linear_flops = 0;
  double attention_flops = 0;
  double active = 0;           ///< tracks that decoded this step
};

/// Flop bill of a spliced cohort's prefill (mini-encode + cross-K/V
/// projection), staged by SteppedExecution::splice and fused into the next
/// decode iteration's kernel — the Orca-style piggyback: the prefill pays no
/// launch of its own and *raises* the fused kernel's utilization instead of
/// running as a tiny low-utilization kernel on the side.
struct SplicePrefill {
  double tokens = 0;           ///< source tokens entering the fused kernel
  double linear_flops = 0;
  double attention_flops = 0;

  SplicePrefill& operator+=(const SplicePrefill& other) noexcept {
    tokens += other.tokens;
    linear_flops += other.linear_flops;
    attention_flops += other.attention_flops;
    return *this;
  }
};

class AnalyticalCostModel final : public CostModel {
 public:
  AnalyticalCostModel(ModelConfig model, HardwareProfile hw);

  [[nodiscard]] double batch_seconds(const BatchPlan& plan) const override;
  [[nodiscard]] CostBreakdown breakdown(const BatchPlan& plan) const;

  // Stepped pricing — the decomposition continuous batching drives.
  // breakdown() is implemented on top of these with identical floating-point
  // operation order, so batch_seconds(plan) ==
  //   encode_seconds(plan) + batch_overhead + sum of decode_step_cost(...)
  // exactly (the pipeline equivalence tests compare with EXPECT_DOUBLE_EQ).

  /// Track states for a freshly formed plan, in plan traversal order (rows,
  /// then segments) — index-aligned with the handles a SlotLedger built from
  /// the plan gives its tracks.
  [[nodiscard]] std::vector<StepTrackState> decode_track_states(
      const BatchPlan& plan) const;

  /// Price of running one decoder iteration over `tracks` *now* (does not
  /// advance steps_done; the caller owns track state). active == 0 means
  /// every track finished and the step would be a no-op costing nothing.
  /// `staged` fuses a spliced cohort's prefill into this iteration's kernel:
  /// its flops join the step's flops and its tokens join the in-flight count
  /// the utilization curve sees (with an empty staging the pricing is
  /// bit-identical to the plain decode step).
  [[nodiscard]] DecodeStepCost decode_step_cost(
      const std::vector<StepTrackState>& tracks,
      const SplicePrefill& staged = {}) const;

  /// Encoder price of a plan (GEMM + mode-exact attention entries), without
  /// the per-batch overhead.
  [[nodiscard]] double encode_seconds(const BatchPlan& plan) const;

  /// Flop bill of splicing requests totalling `total_len` source tokens into
  /// a live batch: a single-row mini-encode (full-row attention over the
  /// cohort) plus the spliced span's cross-K/V projection. Not priced in
  /// seconds here — the backend stages it and the next decode_step_cost call
  /// fuses it into the iteration kernel.
  [[nodiscard]] SplicePrefill splice_prefill(Index total_len) const;

  [[nodiscard]] const HardwareProfile& hardware() const noexcept
      TCB_LIFETIME_BOUND {
    return hw_;
  }
  [[nodiscard]] const ModelConfig& model() const noexcept TCB_LIFETIME_BOUND {
    return model_;
  }

 private:
  /// breakdown()'s encoder half: flops and seconds (overhead excluded).
  [[nodiscard]] CostBreakdown encoder_cost(const BatchPlan& plan) const;

  ModelConfig model_;
  HardwareProfile hw_;
};

/// Times the real CPU engine (encode + greedy decode with decode length
/// capped at `max_decode_steps`). Deterministic inputs are synthesized from
/// the plan's geometry; intended for validation tests and Fig. 16.
class MeasuredCostModel final : public CostModel {
 public:
  MeasuredCostModel(std::shared_ptr<const Seq2SeqModel> model,
                    Index max_decode_steps);

  [[nodiscard]] double batch_seconds(const BatchPlan& plan) const override;

 private:
  std::shared_ptr<const Seq2SeqModel> model_;
  Index max_decode_steps_;
};

}  // namespace tcb
