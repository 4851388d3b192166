#include "serving/backend.hpp"

#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "batching/packed_batch.hpp"
#include "batching/slot_ledger.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

/// The outputs of a decoded batch (a DecodeResult or an InferenceResult):
/// one response per request, plus the K/V accounting.
template <class Decoded>
BatchExecution decoded_execution(Decoded& dec) {
  BatchExecution out;
  out.peak_kv_bytes = dec.peak_kv_bytes;
  out.early_freed_bytes = dec.early_freed_bytes;
  out.reclaimable_kv_bytes = dec.reclaimable_kv_bytes;
  for (auto& [id, tokens] : dec.outputs)
    out.responses.push_back(Response{.id = id, .tokens = std::move(tokens)});
  return out;
}

/// What both stepped executions share: the prologue price, each ledger
/// handle's priced state (track_state's rule), the price of one iteration
/// over the unfinished tracks in ledger order, and spliced prefill staged
/// for the next iteration's fused kernel.
class PricedExecution : public SteppedExecution {
 public:
  [[nodiscard]] double prologue_seconds() const override { return prologue_; }

 protected:
  PricedExecution(const AnalyticalCostModel& clock, const BatchPlan& plan)
      : clock_(clock),
        tracks_(clock.decode_track_states(plan)),
        scheme_(plan.scheme),
        max_width_(plan.max_width()),
        prologue_(clock.encode_seconds(plan) +
                  clock.hardware().batch_overhead) {}

  /// Prices one iteration over `ledger`'s unfinished tracks, with state(h)
  /// each one's state now, fusing in (and consuming) the staged prefill.
  template <class State>
  DecodeStepCost price(const SlotLedger& ledger, State&& state) {
    priced_.clear();
    ledger.for_each_unfinished(
        [&](std::size_t h) { priced_.push_back(state(h)); });
    const DecodeStepCost cost = clock_.decode_step_cost(priced_, staged_);
    staged_ = SplicePrefill{};
    return cost;
  }

  /// Prices the cohort `reqs`, bound to `handles` over a span of `width`,
  /// and stages its prefill bill for the next iteration (per-cohort
  /// quadratic attention, so the flops accumulate per call rather than
  /// merging token counts).
  void price_cohort(std::span<const std::size_t> handles,
                    const std::vector<Request>& reqs, Index width) {
    Index total_len = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      total_len += reqs[i].length;
      if (handles[i] >= tracks_.size()) tracks_.resize(handles[i] + 1);
      tracks_[handles[i]] =
          track_state(scheme_, reqs[i].length, width, max_width_);
    }
    TCB_CHECK(total_len <= width, "splice: requests overflow the slot span");
    staged_ += clock_.splice_prefill(total_len);
  }

  const AnalyticalCostModel& clock_;
  std::vector<StepTrackState> tracks_;  ///< per ledger handle

 private:
  Scheme scheme_;
  Index max_width_ = 0;
  double prologue_ = 0;
  std::vector<StepTrackState> priced_;  ///< unfinished tracks, ledger order
  SplicePrefill staged_;
};

/// Pure-simulation stepped execution: the analytical twin of the engine's
/// DecodeSession. Tracks advance under the model's translation-style decode
/// lengths; its SlotLedger groups them as the decoder's does (row under
/// concat, (row, slot) under slotted), so slot releases fire at the same
/// modeled moments the engine's would.
class AnalyticalSteppedExecution final : public PricedExecution {
 public:
  AnalyticalSteppedExecution(const AnalyticalCostModel& clock,
                             const BatchWork& work)
      : PricedExecution(clock, work.plan),
        ledger_(work.plan, work.plan.scheme == Scheme::kConcatSlotted) {}

  [[nodiscard]] bool done() const override { return ledger_.done(); }

  [[nodiscard]] StepResult step() override {
    const DecodeStepCost cost =
        price(ledger_, [&](std::size_t h) { return tracks_[h]; });
    TCB_CHECK(cost.active > 0.0,
              "AnalyticalSteppedExecution::step called when done");
    StepResult res;
    res.seconds = cost.seconds;
    ledger_.step(
        [&](std::size_t h) {
          tracks_[h].steps_done += 1;
          if (!tracks_[h].finished()) return false;
          res.finished.push_back(ledger_.request_id(h));
          return true;
        },
        [](std::size_t, std::span<const std::size_t>) {}, res.released);
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    std::vector<RequestId> ids;
    for (const auto& req : reqs) ids.push_back(req.id);
    price_cohort(ledger_.admit(row, slot, begin, width, ids), reqs, width);
    return 0.0;
  }

  [[nodiscard]] BatchExecution finish() override { return {}; }

 private:
  SlotLedger ledger_;
};

/// Real stepped execution: a DecodeSession driven one iteration at a time,
/// each iteration priced from the session's *actual* active tracks with the
/// analytical clock — the engine and the virtual clock agree on exactly
/// which tracks decoded.
class EngineSteppedExecution final : public PricedExecution {
 public:
  EngineSteppedExecution(std::shared_ptr<const Seq2SeqModel> model,
                         const AnalyticalCostModel& clock,
                         const InferenceOptions& opts, const BatchWork& work)
      : PricedExecution(clock, work.plan), model_(std::move(model)) {
    session_.emplace(
        *model_, model_->encode(pack_batch(work.plan, work.requests), opts),
        opts.decode_options());
  }

  [[nodiscard]] bool done() const override { return session_->done(); }

  [[nodiscard]] StepResult step() override {
    // Price from the session's live activity *before* the iteration runs:
    // a track at position p pays self-attention over min(p + 1, context).
    const auto& tracks = session_->tracks();
    StepResult res;
    res.seconds = price(session_->ledger(), [&](std::size_t h) {
                    const auto steps =
                        static_cast<Index>(tracks[h].emitted.size());
                    return StepTrackState{steps + 1, steps, tracks_[h].context};
                  }).seconds;
    DecodeStepOutcome outcome = session_->step();
    res.finished = std::move(outcome.finished);
    res.released = std::move(outcome.released);
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    session_->splice(row, slot, begin, width, reqs);
    // The engine already ran the real mini-encode; only pricing is staged.
    const SlotLedger& ledger = session_->ledger();
    price_cohort(ledger.members(ledger.slot_index(row, slot)), reqs, width);
    return 0.0;
  }

  [[nodiscard]] BatchExecution finish() override {
    DecodeResult dec = session_->take_result();
    return decoded_execution(dec);
  }

 private:
  std::shared_ptr<const Seq2SeqModel> model_;
  std::optional<DecodeSession> session_;
};

}  // namespace

std::unique_ptr<SteppedExecution> AnalyticalBackend::begin_stepped(
    const BatchWork& work) const {
  const auto* analytical = dynamic_cast<const AnalyticalCostModel*>(&cost_);
  if (analytical == nullptr) return nullptr;
  return std::make_unique<AnalyticalSteppedExecution>(*analytical, work);
}

EngineBackend::EngineBackend(std::shared_ptr<const Seq2SeqModel> model,
                             const AnalyticalCostModel& clock,
                             InferenceOptions opts,
                             const ClassificationHead* head)
    : model_(std::move(model)), clock_(clock), opts_(opts), head_(head) {
  TCB_CHECK(model_ != nullptr, "EngineBackend: model must not be null");
}

double EngineBackend::batch_seconds(const BatchPlan& plan) const {
  // Encoder-only serving (classification) skips the auto-regressive decode,
  // so its clock advances by encoder + overhead only (paper §5.2).
  const CostBreakdown cost = clock_.breakdown(plan);
  const double seconds = head_ != nullptr
                             ? cost.encoder_seconds + cost.overhead_seconds
                             : cost.total_seconds();
  TCB_CHECK(seconds > 0.0, "EngineBackend: batch clock must advance");
  return seconds;
}

BatchExecution EngineBackend::execute(const BatchWork& work) const {
  const PackedBatch packed = pack_batch(work.plan, work.requests);
  if (head_ == nullptr) {
    InferenceResult inf = model_->infer(packed, opts_);
    return decoded_execution(inf);
  }
  BatchExecution out;
  const EncoderMemory memory = model_->encode(packed, opts_);
  for (const auto& [id, label] : head_->classify(memory))
    out.responses.push_back(Response{.id = id, .tokens = {}, .label = label});
  return out;
}

std::unique_ptr<SteppedExecution> EngineBackend::begin_stepped(
    const BatchWork& work) const {
  if (head_ != nullptr) return nullptr;  // encoder-only: nothing to step
  return std::make_unique<EngineSteppedExecution>(model_, clock_, opts_,
                                                  work);
}

void EngineBackend::validate_trace(const std::vector<Request>& trace) const {
  const Index vocab = model_->config().vocab_size;
  for (const auto& req : trace) {
    if (static_cast<Index>(req.tokens.size()) != req.length)
      throw std::invalid_argument(
          "EngineBackend: request " + std::to_string(req.id) +
          " has no token payload (generate the trace with with_tokens=true)");
    // An id outside the vocabulary would otherwise surface mid-encode, as
    // Embedding's out_of_range, after its batch had already formed.
    for (const Index token : req.tokens)
      if (token < 0 || token >= vocab)
        throw std::invalid_argument(
            "EngineBackend: request " + std::to_string(req.id) +
            " has token id " + std::to_string(token) +
            " outside the vocabulary [0, " + std::to_string(vocab) + ")");
  }
}

}  // namespace tcb
