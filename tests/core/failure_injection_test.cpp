// Failure injection: malformed or adversarial requests must be rejected or
// failed cleanly — never crash, hang, or corrupt other requests' results.
#include <gtest/gtest.h>

#include <memory>

#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"

namespace tcb {
namespace {

TcbConfig small_config() {
  TcbConfig cfg;
  cfg.model = ModelConfig::test_scale();
  cfg.sched.batch_rows = 4;
  cfg.sched.row_capacity = 24;
  cfg.max_decode_steps = 4;
  return cfg;
}

Request token_request(RequestId id, Index len, double arrival,
                      double deadline, Index vocab) {
  Request r;
  r.id = id;
  r.length = len;
  r.arrival = arrival;
  r.deadline = deadline;
  Rng rng(static_cast<std::uint64_t>(id) + 1);
  for (Index t = 0; t < len; ++t)
    r.tokens.push_back(rng.uniform_int(kFirstWordToken, vocab - 1));
  return r;
}

TEST(FailureInjectionTest, ZeroLengthRequestFailsCleanly) {
  const TcbConfig cfg = small_config();
  const TcbSystem tcb(cfg);
  std::vector<Request> trace = {
      token_request(0, 5, 0.0, 9.0, cfg.model.vocab_size),
      token_request(1, 0, 0.0, 9.0, cfg.model.vocab_size),  // degenerate
      token_request(2, 5, 0.0, 9.0, cfg.model.vocab_size),
  };
  const auto result = tcb.serve(trace);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.responses.size(), 2u);
}

TEST(FailureInjectionTest, OversizedRequestFailsOthersSurvive) {
  const TcbConfig cfg = small_config();
  const TcbSystem tcb(cfg);
  std::vector<Request> trace = {
      token_request(0, 5, 0.0, 9.0, cfg.model.vocab_size),
      token_request(1, 100, 0.0, 9.0, cfg.model.vocab_size),  // > L
  };
  const auto result = tcb.serve(trace);
  EXPECT_EQ(result.failed, 1u);
  ASSERT_EQ(result.responses.size(), 1u);
  EXPECT_EQ(result.responses[0].id, 0);
}

TEST(FailureInjectionTest, AlreadyExpiredRequestFailsCleanly) {
  const TcbConfig cfg = small_config();
  const TcbSystem tcb(cfg);
  std::vector<Request> trace = {
      token_request(0, 5, 1.0, 0.5, cfg.model.vocab_size),  // deadline < arrival
      token_request(1, 5, 1.0, 9.0, cfg.model.vocab_size),
  };
  const auto result = tcb.serve(trace);
  EXPECT_EQ(result.failed, 1u);
  ASSERT_EQ(result.responses.size(), 1u);
  EXPECT_EQ(result.responses[0].id, 1);
}

TEST(FailureInjectionTest, TokenLengthMismatchRejectedUpFront) {
  const TcbConfig cfg = small_config();
  const TcbSystem tcb(cfg);
  Request bad = token_request(0, 5, 0.0, 9.0, cfg.model.vocab_size);
  bad.length = 7;  // disagrees with tokens.size()
  EXPECT_THROW((void)tcb.serve({bad}), std::invalid_argument);
}

/// Forwards to a real backend, counting the batches that reached it.
class CountingBackend final : public ExecutionBackend {
 public:
  explicit CountingBackend(const ExecutionBackend& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double batch_seconds(const BatchPlan& plan) const override {
    return inner_.batch_seconds(plan);
  }
  [[nodiscard]] BatchExecution execute(const BatchWork& work) const override {
    ++batches_;
    return inner_.execute(work);
  }
  [[nodiscard]] std::unique_ptr<SteppedExecution> begin_stepped(
      const BatchWork& work) const override {
    ++batches_;
    return inner_.begin_stepped(work);
  }
  void validate_trace(const std::vector<Request>& trace) const override {
    inner_.validate_trace(trace);
  }
  [[nodiscard]] std::size_t batches() const { return batches_; }

 private:
  const ExecutionBackend& inner_;
  mutable std::size_t batches_ = 0;  // one worker: never offloaded
};

TEST(FailureInjectionTest, OutOfVocabTokenRejectedBeforeAnyBatch) {
  const ModelConfig model_cfg = ModelConfig::test_scale();
  const auto model = std::make_shared<const Seq2SeqModel>(model_cfg);
  const AnalyticalCostModel pricing(model_cfg, HardwareProfile::v100_like());
  const EngineBackend engine(model, pricing, InferenceOptions{});
  SchedulerConfig sc;
  sc.batch_rows = 4;
  sc.row_capacity = 24;
  const auto das = make_scheduler("das", sc);
  const VirtualClock clock;

  for (const Index bad : {Index{-1}, model_cfg.vocab_size}) {
    for (const bool continuous : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "token " << bad << (continuous ? " continuous" : " rtc"));
      std::vector<Request> trace = {
          token_request(0, 5, 0.0, 9.0, model_cfg.vocab_size),
          token_request(1, 5, 0.0, 9.0, model_cfg.vocab_size),
      };
      trace[1].tokens.back() = bad;
      const CountingBackend counting(engine);
      PipelineConfig cfg;
      cfg.continuous = continuous;
      const ServingPipeline pipeline(*das, counting, clock, cfg);
      EXPECT_THROW((void)pipeline.run(trace), std::invalid_argument);
      EXPECT_EQ(counting.batches(), 0u);
    }
  }
}

TEST(FailureInjectionTest, SimulatorHandlesDegenerateRequestsInBulk) {
  SchedulerConfig sc;
  sc.batch_rows = 8;
  sc.row_capacity = 50;
  const auto das = make_scheduler("das", sc);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;

  std::vector<Request> trace;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Request r;
    r.id = i;
    r.arrival = rng.uniform(0.0, 1.0);
    r.deadline = r.arrival + rng.uniform(-0.5, 1.0);  // some pre-expired
    r.length = rng.uniform_int(0, 80);                // some 0, some > L
    trace.push_back(std::move(r));
  }
  std::sort(trace.begin(), trace.end(),
            [](const Request& a, const Request& b) { return a.arrival < b.arrival; });
  const auto report = ServingSimulator(*das, cost, sim).run(trace);
  EXPECT_EQ(report.completed + report.failed, report.arrived);
  EXPECT_GT(report.failed, 0u);
  EXPECT_GT(report.completed, 0u);
}

TEST(FailureInjectionTest, ZeroLengthSegmentsDoNotCorruptNeighbors) {
  // Even if a zero-length segment sneaks into a plan, the engine must keep
  // other requests' outputs identical to isolated inference.
  const ModelConfig cfg = ModelConfig::test_scale();
  const Seq2SeqModel model(cfg);
  Request good = token_request(0, 6, 0, 1, cfg.vocab_size);
  Request empty;  // zero length
  empty.id = 1;

  BatchPlan plan;
  plan.scheme = Scheme::kConcatPure;
  plan.row_capacity = 12;
  RowLayout row;
  row.width = 6;
  row.segments.push_back(Segment{0, 0, 6, 0});
  plan.rows.push_back(row);
  // (A 0-length segment cannot be expressed in a valid plan — validate()
  // rejects it — so the "neighbor corruption" scenario reduces to running
  // the good request and checking stability.)
  InferenceOptions opts;
  opts.max_decode_steps = 4;
  const auto batched = model.infer(pack_batch(plan, {good}), opts);
  const auto again = model.infer(pack_batch(plan, {good}), opts);
  EXPECT_EQ(batched.outputs.at(0), again.outputs.at(0));
}

}  // namespace
}  // namespace tcb
