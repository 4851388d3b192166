// Refactor-equivalence proof for the staged ServingPipeline (DESIGN.md §10).
//
// The pre-refactor serving loops — the discrete-event ServingSimulator body
// and TcbSystem's engine loop — are frozen below, verbatim, as reference
// implementations. The pipeline must reproduce them *exactly* (EXPECT_EQ /
// EXPECT_DOUBLE_EQ, not tolerances): both sides run the same arithmetic in
// the same order, so any drift is a real behavior change, not rounding.
//
// Coverage: the fig09/fig10 operating points (paper workload, DAS,
// batch_rows=64, L=100, rates across and past saturation, all three
// simulated schemes) plus the slotted full system; for the engine path,
// token-identical outputs and identical simulated times on the test-scale
// model, including classification serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "batching/concat_batcher.hpp"
#include "batching/naive_batcher.hpp"
#include "batching/packed_batch.hpp"
#include "batching/slotted_batcher.hpp"
#include "batching/turbo_batcher.hpp"
#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

// ---------------------------------------------------------------------------
// Frozen pre-refactor ServingSimulator::run (single worker, analytical cost;
// wall-clock scheduler timing dropped — it never influenced decisions).
// ---------------------------------------------------------------------------
struct ReferenceReport {
  std::size_t completed = 0;
  std::size_t failed = 0;
  double total_utility = 0.0;
  double throughput = 0.0;
  double makespan = 0.0;
  std::size_t batches = 0;
  double busy_seconds = 0.0;
};

ReferenceReport reference_simulator_run(const Scheduler& scheduler,
                                        const CostModel& cost, Scheme scheme,
                                        Index fixed_slot_len,
                                        const std::vector<Request>& trace) {
  const SchedulerConfig& sched_cfg = scheduler.config();
  ReferenceReport report;

  const NaiveBatcher naive;
  const TurboBatcher turbo;
  const ConcatBatcher concat;

  double trace_end = 0.0;
  for (const auto& req : trace) trace_end = std::max(trace_end, req.arrival);

  double now = 0.0;
  std::size_t next_arrival = 0;
  std::vector<Request> pending;

  while (true) {
    while (next_arrival < trace.size() && trace[next_arrival].arrival <= now) {
      pending.push_back(trace[next_arrival]);
      ++next_arrival;
    }
    report.failed +=
        evict_unschedulable(now, sched_cfg.row_capacity, pending).size();

    if (pending.empty()) {
      if (next_arrival >= trace.size()) break;
      now = trace[next_arrival].arrival;
      continue;
    }

    const Selection sel = scheduler.select(now, pending);

    BatchBuildResult built;
    switch (scheme) {
      case Scheme::kNaive:
        built = naive.build(sel.ordered, Row{sched_cfg.batch_rows},
                            Col{sched_cfg.row_capacity});
        break;
      case Scheme::kTurbo:
        built = turbo.build(sel.ordered, Row{sched_cfg.batch_rows},
                            Col{sched_cfg.row_capacity});
        break;
      case Scheme::kConcatPure:
        built = concat.build(sel.ordered, Row{sched_cfg.batch_rows},
                             Col{sched_cfg.row_capacity});
        break;
      case Scheme::kConcatSlotted: {
        Index z = sel.slot_len > 0 ? sel.slot_len : fixed_slot_len;
        if (z <= 0) z = sched_cfg.row_capacity;
        const SlottedConcatBatcher slotted(z);
        built = slotted.build(sel.ordered, Row{sched_cfg.batch_rows},
                              Col{sched_cfg.row_capacity});
        break;
      }
    }

    if (built.plan.empty()) {
      if (next_arrival < trace.size()) {
        now = std::max(now, trace[next_arrival].arrival);
        continue;
      }
      report.failed += pending.size();
      pending.clear();
      break;
    }

    const double batch_time = cost.batch_seconds(built.plan);
    if (!(batch_time > 0.0))
      throw std::logic_error("reference: non-positive batch time");
    const double completion = now + batch_time;

    std::unordered_set<RequestId> served;
    for (const auto id : built.plan.request_ids()) served.insert(id);
    for (const auto& req : pending) {
      if (!served.contains(req.id)) continue;
      report.total_utility += req.utility();
      ++report.completed;
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return served.contains(r.id);
                                 }),
                  pending.end());

    ++report.batches;
    report.busy_seconds += batch_time;
    now = completion;
    report.makespan = std::max(report.makespan, completion);
  }

  const double horizon = std::max(report.makespan, trace_end);
  report.throughput =
      horizon > 0.0 ? static_cast<double>(report.completed) / horizon : 0.0;
  return report;
}

// ---------------------------------------------------------------------------
// Frozen pre-refactor TcbSystem engine loop (seq2seq and encoder-only).
// ---------------------------------------------------------------------------
ServeResult reference_serve(const TcbConfig& cfg, const Scheduler& scheduler,
                            const Seq2SeqModel& model,
                            const AnalyticalCostModel& clock,
                            const std::vector<Request>& trace,
                            const ClassificationHead* head) {
  InferenceOptions opts;
  opts.mode = cfg.scheme == Scheme::kConcatSlotted ? AttentionMode::kSlotted
                                                   : AttentionMode::kPureConcat;
  if (head == nullptr) {
    opts.max_decode_steps = cfg.max_decode_steps;
    opts.early_memory_cleaning = cfg.early_memory_cleaning;
  }

  const NaiveBatcher naive;
  const TurboBatcher turbo;
  const ConcatBatcher concat;

  ServeResult result;
  double now = 0.0;
  std::size_t next_arrival = 0;
  std::vector<Request> pending;

  while (true) {
    while (next_arrival < trace.size() && trace[next_arrival].arrival <= now) {
      pending.push_back(trace[next_arrival]);
      ++next_arrival;
    }
    result.failed +=
        evict_unschedulable(now, cfg.sched.row_capacity, pending).size();

    if (pending.empty()) {
      if (next_arrival >= trace.size()) break;
      now = trace[next_arrival].arrival;
      continue;
    }

    const Selection sel = scheduler.select(now, pending);

    BatchBuildResult built;
    switch (cfg.scheme) {
      case Scheme::kNaive:
        built = naive.build(sel.ordered, Row{cfg.sched.batch_rows},
                            Col{cfg.sched.row_capacity});
        break;
      case Scheme::kTurbo:
        built = turbo.build(sel.ordered, Row{cfg.sched.batch_rows},
                            Col{cfg.sched.row_capacity});
        break;
      case Scheme::kConcatPure:
        built = concat.build(sel.ordered, Row{cfg.sched.batch_rows},
                             Col{cfg.sched.row_capacity});
        break;
      case Scheme::kConcatSlotted: {
        const Index z =
            sel.slot_len > 0 ? sel.slot_len : cfg.sched.row_capacity;
        const SlottedConcatBatcher slotted(z);
        built = slotted.build(sel.ordered, Row{cfg.sched.batch_rows},
                              Col{cfg.sched.row_capacity});
        break;
      }
    }

    if (built.plan.empty()) {
      if (next_arrival < trace.size()) {
        now = std::max(now, trace[next_arrival].arrival);
        continue;
      }
      result.failed += pending.size();
      break;
    }

    std::unordered_map<RequestId, const Request*> by_id;
    for (const auto& req : pending) by_id.emplace(req.id, &req);
    const PackedBatch packed = pack_batch(built.plan, by_id);

    std::vector<Response> responses;
    if (head != nullptr) {
      const EncoderMemory memory = model.encode(packed, opts);
      for (const auto& [id, label] : head->classify(memory)) {
        Response resp;
        resp.id = id;
        resp.label = label;
        responses.push_back(std::move(resp));
      }
    } else {
      InferenceResult inf = model.infer(packed, opts);
      result.peak_kv_bytes = std::max(result.peak_kv_bytes, inf.peak_kv_bytes);
      result.early_freed_bytes += inf.early_freed_bytes;
      for (auto& [id, tokens] : inf.outputs) {
        Response resp;
        resp.id = id;
        resp.tokens = std::move(tokens);
        responses.push_back(std::move(resp));
      }
    }

    const CostBreakdown price = clock.breakdown(built.plan);
    const double batch_time = head != nullptr
                                  ? price.encoder_seconds + price.overhead_seconds
                                  : price.total_seconds();
    const double completion = now + batch_time;

    std::unordered_map<RequestId, double> scheduled;
    for (const auto id : built.plan.request_ids()) scheduled.emplace(id, now);
    for (auto& resp : responses) {
      resp.scheduled_at = scheduled.at(resp.id);
      resp.completed_at = completion;
      result.responses.push_back(std::move(resp));
    }
    for (const auto& req : pending)
      if (scheduled.contains(req.id)) result.total_utility += req.utility();
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return scheduled.contains(r.id);
                                 }),
                  pending.end());

    ++result.batches;
    now = completion;
    result.makespan = now;
  }

  std::sort(result.responses.begin(), result.responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  return result;
}

// ---------------------------------------------------------------------------
// Analytical equivalence on the fig09/fig10 operating points.
// ---------------------------------------------------------------------------
WorkloadConfig paper_workload(double rate) {
  WorkloadConfig w;
  w.rate = rate;
  w.duration = 2.0;  // the benches' fast-mode duration
  w.min_len = 3;
  w.max_len = 100;
  w.mean_len = 20.0;
  w.len_variance = 20.0;
  w.deadline_slack_min = 0.5;
  w.deadline_slack_max = 2.0;
  w.seed = 2022;
  return w;
}

TEST(PipelineEquivalenceTest, AnalyticalMatchesFrozenSimulatorOnFig09Fig10) {
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const auto das = make_scheduler("das", sc);

  // Rates below, around, and far past saturation (fig09/fig10 x-axis).
  for (const double rate : {40.0, 200.0, 450.0, 1500.0}) {
    const auto trace = generate_trace(paper_workload(rate));
    for (const Scheme scheme :
         {Scheme::kNaive, Scheme::kTurbo, Scheme::kConcatPure}) {
      const ReferenceReport expected =
          reference_simulator_run(*das, cost, scheme, 0, trace);

      PipelineConfig sim;
      sim.scheme = scheme;
      const ServingReport got = ServingSimulator(*das, cost, sim).run(trace);

      SCOPED_TRACE(std::string(scheme_name(scheme)) + " @ rate " +
                   std::to_string(rate));
      EXPECT_EQ(got.completed, expected.completed);
      EXPECT_EQ(got.failed, expected.failed);
      EXPECT_EQ(got.batches, expected.batches);
      EXPECT_DOUBLE_EQ(got.total_utility, expected.total_utility);
      EXPECT_DOUBLE_EQ(got.makespan, expected.makespan);
      EXPECT_DOUBLE_EQ(got.throughput, expected.throughput);
      EXPECT_DOUBLE_EQ(got.busy_seconds, expected.busy_seconds);
    }
  }
}

TEST(PipelineEquivalenceTest, AnalyticalMatchesFrozenSimulatorSlottedDas) {
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const auto slotted = make_scheduler("slotted-das", sc);
  const auto trace = generate_trace(paper_workload(250.0));

  const ReferenceReport expected = reference_simulator_run(
      *slotted, cost, Scheme::kConcatSlotted, 0, trace);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatSlotted;
  const ServingReport got = ServingSimulator(*slotted, cost, sim).run(trace);

  EXPECT_EQ(got.completed, expected.completed);
  EXPECT_EQ(got.failed, expected.failed);
  EXPECT_EQ(got.batches, expected.batches);
  EXPECT_DOUBLE_EQ(got.total_utility, expected.total_utility);
  EXPECT_DOUBLE_EQ(got.makespan, expected.makespan);
}

// A tight admission bound must change nothing but the backpressure counter:
// the pipeline drains inline, so the numbers are capacity-invariant.
TEST(PipelineEquivalenceTest, AdmissionCapacityDoesNotChangeDynamics) {
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const auto das = make_scheduler("das", sc);
  const auto trace = generate_trace(paper_workload(450.0));
  const AnalyticalBackend backend(cost);
  const VirtualClock clock;

  PipelineConfig wide;
  wide.scheme = Scheme::kConcatPure;
  const PipelineResult roomy =
      ServingPipeline(*das, backend, clock, wide).run(trace);

  PipelineConfig tight = wide;
  tight.admission_capacity = 2;
  const PipelineResult cramped =
      ServingPipeline(*das, backend, clock, tight).run(trace);

  EXPECT_EQ(roomy.report.backpressure_events, 0u);
  EXPECT_GT(cramped.report.backpressure_events, 0u);
  EXPECT_EQ(cramped.report.completed, roomy.report.completed);
  EXPECT_EQ(cramped.report.failed, roomy.report.failed);
  EXPECT_DOUBLE_EQ(cramped.report.total_utility, roomy.report.total_utility);
  EXPECT_DOUBLE_EQ(cramped.report.makespan, roomy.report.makespan);
}

// ---------------------------------------------------------------------------
// Engine equivalence: token-identical outputs, identical simulated times.
// ---------------------------------------------------------------------------
TcbConfig engine_config(Scheme scheme) {
  TcbConfig cfg;
  cfg.model = ModelConfig::test_scale();
  cfg.sched.batch_rows = 4;
  cfg.sched.row_capacity = 24;
  cfg.scheme = scheme;
  cfg.scheduler = scheme == Scheme::kConcatSlotted ? "slotted-das" : "das";
  cfg.max_decode_steps = 6;
  return cfg;
}

WorkloadConfig engine_workload(std::uint64_t seed) {
  WorkloadConfig w;
  w.rate = 40;
  w.duration = 1.0;
  w.min_len = 2;
  w.max_len = 16;
  w.mean_len = 6;
  w.len_variance = 6;
  w.deadline_slack_min = 0.2;  // tight enough that some requests expire
  w.deadline_slack_max = 4.0;
  w.seed = seed;
  w.with_tokens = true;
  w.vocab_size = ModelConfig::test_scale().vocab_size;
  return w;
}

void expect_serve_results_identical(const ServeResult& got,
                                    const ServeResult& expected) {
  EXPECT_EQ(got.failed, expected.failed);
  EXPECT_EQ(got.batches, expected.batches);
  EXPECT_DOUBLE_EQ(got.total_utility, expected.total_utility);
  EXPECT_DOUBLE_EQ(got.makespan, expected.makespan);
  EXPECT_EQ(got.peak_kv_bytes, expected.peak_kv_bytes);
  EXPECT_EQ(got.early_freed_bytes, expected.early_freed_bytes);
  ASSERT_EQ(got.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& a = got.responses[i];
    const Response& b = expected.responses[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.scheduled_at, b.scheduled_at);
    EXPECT_DOUBLE_EQ(a.completed_at, b.completed_at);
    EXPECT_EQ(a.tokens, b.tokens) << "response " << a.id;
    EXPECT_EQ(a.label, b.label);
  }
}

TEST(PipelineEquivalenceTest, EngineServeMatchesFrozenLoopTokenForToken) {
  for (const Scheme scheme : {Scheme::kConcatPure, Scheme::kConcatSlotted}) {
    const TcbConfig cfg = engine_config(scheme);
    const TcbSystem tcb(cfg);
    const AnalyticalCostModel clock(cfg.model, cfg.hardware);
    const auto trace = generate_trace(engine_workload(7));

    const ServeResult expected = reference_serve(
        cfg, tcb.scheduler(), tcb.model(), clock, trace, nullptr);
    const ServeResult got = tcb.serve(trace);

    SCOPED_TRACE(scheme_name(scheme));
    EXPECT_FALSE(got.responses.empty());
    expect_serve_results_identical(got, expected);
  }
}

TEST(PipelineEquivalenceTest, EngineClassifyMatchesFrozenLoop) {
  const TcbConfig cfg = engine_config(Scheme::kConcatPure);
  const TcbSystem tcb(cfg);
  const AnalyticalCostModel clock(cfg.model, cfg.hardware);
  const ClassificationHead head(cfg.model.d_model, /*num_classes=*/4,
                                /*seed=*/11);
  const auto trace = generate_trace(engine_workload(9));

  const ServeResult expected =
      reference_serve(cfg, tcb.scheduler(), tcb.model(), clock, trace, &head);
  const ServeResult got = tcb.serve_classify(trace, head);

  EXPECT_FALSE(got.responses.empty());
  expect_serve_results_identical(got, expected);
}

}  // namespace
}  // namespace tcb
