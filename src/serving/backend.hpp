// ExecutionBackend — stage 4/5 of the staged serving pipeline (DESIGN.md
// §10.2): everything the pipeline needs to know about *what executes a
// batch*, behind one interface.
//
// The pipeline itself is engine-agnostic. It prices every batch through
// batch_seconds() to advance simulated time (so queueing, deadline expiry
// and utility stay deterministic and machine-independent), and hands the
// formed batch to execute() for the actual outputs. Two implementations:
//
//   * AnalyticalBackend — pure simulation: prices the plan with a CostModel
//     and produces no responses. This is the paper-scale serving mode
//     (Figs. 9-12, 15; 40-1500 req/s).
//   * EngineBackend — runs the real CPU transformer for the outputs
//     (seq2seq decode, or encoder-only classification when a
//     ClassificationHead is attached) while *still* pricing the virtual
//     clock analytically. offload() is true: execute() is safe to run on a
//     pool worker concurrently with other batches, which is what the
//     pipeline's multi-worker mode does.
//
// This file and cost_model.hpp are the only serving files allowed to
// include the engine headers (nn/model.hpp, nn/classifier.hpp) — enforced
// by tcb-lint's engine-behind-backend rule.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "batching/batch_plan.hpp"
#include "nn/classifier.hpp"
#include "nn/model.hpp"
#include "serving/cost_model.hpp"

namespace tcb {

/// One served request.
struct Response {
  RequestId id = -1;
  double scheduled_at = 0.0;
  double completed_at = 0.0;
  std::vector<Index> tokens;  ///< generated output tokens (seq2seq serving)
  Index label = -1;           ///< predicted class (classification serving)
};

/// A formed batch crossing the formation -> execution stage boundary. Owns
/// its plan and a copy of the placed requests so execution can run on a
/// worker thread after the coordinator has already mutated its pending set.
struct BatchWork {
  BatchPlan plan;
  std::vector<Request> requests;  ///< exactly the requests the plan placed
};

/// What executing one batch produced. scheduled_at/completed_at on the
/// responses are left 0 — the pipeline owns simulated time and stamps them.
struct BatchExecution {
  std::vector<Response> responses;
  std::size_t peak_kv_bytes = 0;
  std::size_t early_freed_bytes = 0;
  /// See DecodeResult::reclaimable_kv_bytes.
  std::size_t reclaimable_kv_bytes = 0;
};

/// One batch being executed one decoder iteration at a time — the execution
/// half of continuous batching (DESIGN.md §15). Obtained from
/// ExecutionBackend::begin_stepped(); the pipeline's coordinator alternates
/// step() with slot releases and splice() admissions, then collects the
/// batch's outputs with finish().
///
/// Not thread-safe: one coordinator drives a given execution; concurrency
/// comes from the engine's own intra-step parallelism (and, in simulation,
/// from interleaving many executions on one coordinator).
class SteppedExecution {
 public:
  virtual ~SteppedExecution() = default;

  struct StepResult {
    /// Simulated-time price of this iteration (step overhead + active-track
    /// flops at the hardware's utilization for that activity).
    double seconds = 0;
    /// Requests that emitted their final token during this iteration.
    std::vector<RequestId> finished;
    /// Slots whose last track finished during this iteration.
    std::vector<SlotRelease> released;
  };

  /// Simulated-time price paid before the first step (encoder + batch
  /// launch overhead).
  [[nodiscard]] virtual double prologue_seconds() const = 0;

  /// True when every track (original and spliced) has finished.
  [[nodiscard]] virtual bool done() const = 0;

  /// Runs one decoder iteration. Must not be called when done().
  [[nodiscard]] virtual StepResult step() = 0;

  /// Splices `reqs` into the vacated span [begin, begin + width) of `row`
  /// (previously surfaced by a StepResult::released entry, or vacant from
  /// formation). Returns any immediate simulated-time price; the built-in
  /// backends return 0 and instead stage the cohort's prefill flops into the
  /// next step()'s fused iteration kernel (SplicePrefill). The requests'
  /// total length must fit `width`.
  [[nodiscard]] virtual double splice(Row row, Slot slot, Col begin,
                                      Index width,
                                      std::vector<Request> reqs) = 0;

  /// Final outputs + accounting; call once, when done().
  [[nodiscard]] virtual BatchExecution finish() = 0;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Simulated-time price of one formed batch; must be > 0 for non-empty
  /// plans (the pipeline's clock must advance).
  [[nodiscard]] virtual double batch_seconds(const BatchPlan& plan) const = 0;

  /// Executes one batch. When offload() is true this must be safe to call
  /// concurrently from multiple threads.
  [[nodiscard]] virtual BatchExecution execute(const BatchWork& work) const = 0;

  /// True when execute() does real work worth running concurrently; the
  /// pipeline then dispatches it to the thread pool in multi-worker mode.
  [[nodiscard]] virtual bool offload() const noexcept { return false; }

  /// Starts iteration-level execution of one batch, or returns nullptr when
  /// this backend cannot step it (the pipeline's continuous mode requires
  /// non-null). Default: unsupported.
  [[nodiscard]] virtual std::unique_ptr<SteppedExecution> begin_stepped(
      const BatchWork& work) const {
    (void)work;
    return nullptr;
  }

  /// Rejects traces this backend cannot execute. Called once per run,
  /// before any request is admitted.
  virtual void validate_trace(const std::vector<Request>& trace) const {
    (void)trace;
  }
};

/// Prices batches with a cost model and executes nothing — the pipeline's
/// accounting (completed/failed/utility/latency) is the entire output.
class AnalyticalBackend final : public ExecutionBackend {
 public:
  explicit AnalyticalBackend(const CostModel& cost) : cost_(cost) {}

  [[nodiscard]] std::string name() const override { return "analytical"; }
  [[nodiscard]] double batch_seconds(const BatchPlan& plan) const override {
    return cost_.batch_seconds(plan);
  }
  [[nodiscard]] BatchExecution execute(const BatchWork& work) const override {
    (void)work;
    return {};
  }
  /// Stepped simulation: prices each iteration with the analytical model's
  /// decode_step_cost over simulated track states (translation-style decode
  /// lengths), emitting slot releases as modeled tracks retire. Requires the
  /// wrapped CostModel to be the AnalyticalCostModel; returns nullptr for
  /// other cost models.
  [[nodiscard]] std::unique_ptr<SteppedExecution> begin_stepped(
      const BatchWork& work) const override;

 private:
  const CostModel& cost_;
};

/// Runs the real CPU engine for outputs while pricing simulated time with
/// the analytical model of the *configured* model on the configured hardware
/// (not host wall time — dynamics stay machine-independent). With a
/// ClassificationHead attached the backend encodes once and classifies
/// (encoder-only pricing); otherwise it decodes auto-regressively.
class EngineBackend final : public ExecutionBackend {
 public:
  /// `head`, when non-null, must outlive the backend and match the model's
  /// d_model.
  EngineBackend(std::shared_ptr<const Seq2SeqModel> model,
                const AnalyticalCostModel& clock, InferenceOptions opts,
                const ClassificationHead* head = nullptr);

  [[nodiscard]] std::string name() const override { return "engine"; }
  [[nodiscard]] double batch_seconds(const BatchPlan& plan) const override;
  [[nodiscard]] BatchExecution execute(const BatchWork& work) const override;
  [[nodiscard]] bool offload() const noexcept override { return true; }
  /// Rejects requests whose token payload is missing or holds an id outside
  /// the model's vocabulary.
  void validate_trace(const std::vector<Request>& trace) const override;
  /// Real stepped execution over a DecodeSession, priced per iteration with
  /// the analytical clock's decode_step_cost over the session's *actual*
  /// track activity — so the virtual clock sees exactly the work the engine
  /// did, partial batches included. Returns nullptr in classification mode
  /// (encoder-only serving has no decode loop to step).
  [[nodiscard]] std::unique_ptr<SteppedExecution> begin_stepped(
      const BatchWork& work) const override;

 private:
  std::shared_ptr<const Seq2SeqModel> model_;
  const AnalyticalCostModel& clock_;  ///< virtual-clock pricing, not wall time
  InferenceOptions opts_;
  const ClassificationHead* head_;  ///< non-owning; encoder-only when set
};

}  // namespace tcb
