#include "serving/backend.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "batching/packed_batch.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

/// Attention context width per track, in plan traversal order — the same
/// rule AnalyticalCostModel::decode_track_states applies, kept callable per
/// track so spliced admissions extend it.
double track_context(const BatchPlan& plan, const RowLayout& row,
                     Index max_width) {
  const bool slotted = plan.scheme == Scheme::kConcatSlotted;
  const bool concat = slotted || plan.scheme == Scheme::kConcatPure;
  if (slotted) return static_cast<double>(plan.effective_slot_len(row));
  if (concat) return static_cast<double>(row.width);
  return static_cast<double>(max_width);
}

/// Pure-simulation stepped execution: the analytical twin of the engine's
/// DecodeSession. Tracks advance under the model's translation-style decode
/// lengths; groups mirror the decoder's (row under concat, (row, slot) under
/// slotted), so slot releases fire at the same modeled moments the engine's
/// would.
class AnalyticalSteppedExecution final : public SteppedExecution {
 public:
  AnalyticalSteppedExecution(const AnalyticalCostModel& clock,
                             const BatchWork& work)
      : clock_(clock),
        scheme_(work.plan.scheme),
        max_width_(work.plan.max_width()),
        prologue_(clock.encode_seconds(work.plan) +
                  clock.hardware().batch_overhead) {
    const BatchPlan& plan = work.plan;
    const bool slotted =
        plan.scheme == Scheme::kConcatSlotted && plan.slot_len > 0;
    tracks_ = clock_.decode_track_states(plan);
    std::unordered_map<Index, std::size_t> key_to_group;
    std::size_t track_index = 0;
    for (std::size_t r = 0; r < plan.rows.size(); ++r) {
      const RowLayout& row = plan.rows[r];
      for (const Segment& seg : row.segments) {
        ids_.push_back(seg.request_id);
        const Row track_row{static_cast<Index>(r)};
        const Slot track_slot = slotted ? seg.slot_index() : Slot{0};
        const Index key = track_row.value() * (max_width_ + 1) +
                          (slotted ? track_slot.value() : 0);
        auto [it, inserted] = key_to_group.try_emplace(key, groups_.size());
        if (inserted) {
          Group g;
          g.row = track_row;
          g.slot = track_slot;
          if (slotted) {
            const Index z = plan.slot_len;
            g.begin = Col{track_slot.value() * z};
            g.width = std::min(z, row.width - g.begin.value());
          } else {
            g.begin = Col{0};
            g.width = row.width;
          }
          groups_.push_back(std::move(g));
        }
        groups_[it->second].members.push_back(track_index);
        track_index += 1;
      }
    }
  }

  [[nodiscard]] double prologue_seconds() const override { return prologue_; }

  [[nodiscard]] bool done() const override {
    return std::all_of(tracks_.begin(), tracks_.end(),
                       [](const StepTrackState& t) { return t.finished(); });
  }

  [[nodiscard]] StepResult step() override {
    StepResult res;
    const DecodeStepCost cost = clock_.decode_step_cost(tracks_, staged_);
    staged_ = SplicePrefill{};
    TCB_CHECK(cost.active > 0.0,
              "AnalyticalSteppedExecution::step called when done");
    res.seconds = cost.seconds;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      if (tracks_[i].finished()) continue;
      tracks_[i].steps_done += 1;
      if (tracks_[i].finished()) res.finished.push_back(ids_[i]);
    }
    for (auto& group : groups_) {
      if (group.completed) continue;
      const bool group_done =
          std::all_of(group.members.begin(), group.members.end(),
                      [&](std::size_t m) { return tracks_[m].finished(); });
      if (!group_done) continue;
      group.completed = true;
      SlotRelease rel;
      rel.row = group.row;
      rel.slot = group.slot;
      rel.begin = group.begin;
      rel.width = group.width;
      for (const auto m : group.members) rel.finished.push_back(ids_[m]);
      res.released.push_back(std::move(rel));
    }
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    const bool concat = scheme_ == Scheme::kConcatSlotted ||
                        scheme_ == Scheme::kConcatPure;
    Index total_len = 0;
    Group g;
    g.row = row;
    g.slot = slot;
    g.begin = begin;
    g.width = width;
    for (const auto& req : reqs) {
      total_len += req.length;
      StepTrackState st;
      st.decode_len = concat ? req.length : max_width_;
      st.context = concat ? static_cast<double>(width)
                          : static_cast<double>(max_width_);
      g.members.push_back(tracks_.size());
      tracks_.push_back(st);
      ids_.push_back(req.id);
    }
    TCB_CHECK(total_len <= width, "splice: requests overflow the slot span");
    groups_.push_back(std::move(g));
    // Stage the cohort's prefill bill; the next step() fuses it into the
    // iteration kernel (per-cohort quadratic attention, so accumulate the
    // flops per call rather than merging token counts).
    const SplicePrefill bill = clock_.splice_prefill(total_len);
    staged_.tokens += bill.tokens;
    staged_.linear_flops += bill.linear_flops;
    staged_.attention_flops += bill.attention_flops;
    return 0.0;
  }

  [[nodiscard]] BatchExecution finish() override { return {}; }

 private:
  struct Group {
    std::vector<std::size_t> members;
    Row row{0};
    Slot slot{0};
    Col begin{0};
    Index width = 0;
    bool completed = false;
  };

  const AnalyticalCostModel& clock_;
  Scheme scheme_;
  Index max_width_ = 0;
  double prologue_ = 0;
  std::vector<StepTrackState> tracks_;
  std::vector<RequestId> ids_;
  std::vector<Group> groups_;
  SplicePrefill staged_;  ///< spliced prefill awaiting the next fused step
};

/// Real stepped execution: a DecodeSession driven one iteration at a time,
/// each iteration priced from the session's *actual* active tracks with the
/// analytical clock — the engine and the virtual clock agree on exactly
/// which tracks decoded.
class EngineSteppedExecution final : public SteppedExecution {
 public:
  EngineSteppedExecution(std::shared_ptr<const Seq2SeqModel> model,
                         const AnalyticalCostModel& clock,
                         const InferenceOptions& opts, const BatchWork& work)
      : model_(std::move(model)), clock_(clock), scheme_(work.plan.scheme) {
    const BatchPlan& plan = work.plan;
    max_width_ = plan.max_width();
    prologue_ = clock_.encode_seconds(plan) + clock_.hardware().batch_overhead;
    for (const RowLayout& row : plan.rows)
      for (std::size_t s = 0; s < row.segments.size(); ++s)
        contexts_.push_back(track_context(plan, row, max_width_));

    DecodeOptions dopts;
    dopts.mode = opts.mode;
    dopts.max_steps = opts.max_decode_steps;
    dopts.early_memory_cleaning = opts.early_memory_cleaning;
    dopts.cap_at_source_length = opts.cap_decode_at_source_length;
    dopts.strategy = opts.decode_strategy;
    dopts.top_k = opts.top_k;
    dopts.temperature = opts.temperature;
    dopts.sample_seed = opts.sample_seed;
    dopts.separate_positional_encoding = opts.separate_positional_encoding;
    dopts.mask_policy = opts.mask_policy;
    session_.emplace(*model_,
                     model_->encode(pack_batch(plan, work.requests), opts),
                     dopts);
  }

  [[nodiscard]] double prologue_seconds() const override { return prologue_; }

  [[nodiscard]] bool done() const override { return session_->done(); }

  [[nodiscard]] StepResult step() override {
    // Price from the session's live activity *before* the iteration runs:
    // a track at position p pays self-attention over min(p + 1, context).
    std::vector<StepTrackState> priced;
    const auto& tracks = session_->tracks();
    priced.reserve(tracks.size());
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      StepTrackState st;
      st.steps_done = static_cast<Index>(tracks[i].emitted.size());
      st.decode_len = tracks[i].finished ? st.steps_done : st.steps_done + 1;
      st.context = contexts_[i];
      priced.push_back(st);
    }
    StepResult res;
    res.seconds = clock_.decode_step_cost(priced, staged_).seconds;
    staged_ = SplicePrefill{};
    DecodeStepOutcome outcome = session_->step();
    res.finished = std::move(outcome.finished);
    res.released = std::move(outcome.released);
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    Index total_len = 0;
    for (const auto& req : reqs) total_len += req.length;
    const bool concat = scheme_ == Scheme::kConcatSlotted ||
                        scheme_ == Scheme::kConcatPure;
    session_->splice(row, slot, begin, width, reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      contexts_.push_back(concat ? static_cast<double>(width)
                                 : static_cast<double>(max_width_));
    // Stage the cohort's prefill bill for the next fused iteration (the
    // engine already ran the real mini-encode above; only pricing is staged).
    const SplicePrefill bill = clock_.splice_prefill(total_len);
    staged_.tokens += bill.tokens;
    staged_.linear_flops += bill.linear_flops;
    staged_.attention_flops += bill.attention_flops;
    return 0.0;
  }

  [[nodiscard]] BatchExecution finish() override {
    DecodeResult dec = session_->take_result();
    BatchExecution out;
    out.peak_kv_bytes = dec.peak_kv_bytes;
    out.early_freed_bytes = dec.early_freed_bytes;
    out.reclaimable_kv_bytes = dec.reclaimable_kv_bytes;
    for (auto& [id, tokens] : dec.outputs) {
      Response resp;
      resp.id = id;
      resp.tokens = std::move(tokens);
      out.responses.push_back(std::move(resp));
    }
    return out;
  }

 private:
  std::shared_ptr<const Seq2SeqModel> model_;
  const AnalyticalCostModel& clock_;
  Scheme scheme_;
  Index max_width_ = 0;
  double prologue_ = 0;
  std::vector<double> contexts_;  ///< per track, extended by splice
  SplicePrefill staged_;  ///< spliced prefill awaiting the next fused step
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
  BatchExecution out;
  if (head_ != nullptr) {
    const EncoderMemory memory = model_->encode(packed, opts_);
    for (const auto& [id, label] : head_->classify(memory)) {
      Response resp;
      resp.id = id;
      resp.label = label;
      out.responses.push_back(std::move(resp));
    }
    return out;
  }
  InferenceResult inf = model_->infer(packed, opts_);
  out.peak_kv_bytes = inf.peak_kv_bytes;
  out.early_freed_bytes = inf.early_freed_bytes;
  out.reclaimable_kv_bytes = inf.reclaimable_kv_bytes;
  for (auto& [id, tokens] : inf.outputs) {
    Response resp;
    resp.id = id;
    resp.tokens = std::move(tokens);
    out.responses.push_back(std::move(resp));
  }
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
