// Continuous iteration-level batching through the serving pipeline
// (DESIGN.md §15): batches step one decoder iteration at a time, finished
// requests release their slots mid-batch and DAS splices waiting requests
// into the vacated spans. Covers both backends:
//   * AnalyticalBackend (via ServingSimulator) — paper-scale dynamics:
//     conservation, determinism, splicing actually happening, and the
//     throughput/utility win over run-to-completion at saturation;
//   * EngineBackend (via TcbSystem) — the real decoder: every served token
//     sequence stays bitwise identical to run-to-completion serving, which
//     itself equals solo inference (the concat-equivalence invariant
//     survives mid-batch splicing).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

class ContinuousSimulationTest : public ::testing::Test {
 protected:
  ContinuousSimulationTest()
      : cost_(ModelConfig::paper_scale(), HardwareProfile::v100_like()) {
    sched_cfg_.batch_rows = 16;
    sched_cfg_.row_capacity = 100;
  }

  std::vector<Request> make_trace(double rate, double duration,
                                  std::uint64_t seed, double slack_min = 0.5,
                                  double slack_max = 2.0) const {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = duration;
    w.seed = seed;
    w.deadline_slack_min = slack_min;
    w.deadline_slack_max = slack_max;
    return generate_trace(w);
  }

  ServingReport run(const std::vector<Request>& trace, bool continuous,
                    const char* scheduler = "slotted-das",
                    Scheme scheme = Scheme::kConcatSlotted) const {
    const auto sched = make_scheduler(scheduler, sched_cfg_);
    PipelineConfig sim;
    sim.scheme = scheme;
    sim.continuous = continuous;
    const ServingSimulator simulator(*sched, cost_, sim);
    return simulator.run(trace);
  }

  SchedulerConfig sched_cfg_;
  AnalyticalCostModel cost_;
};

TEST_F(ContinuousSimulationTest, ConservationOfRequests) {
  const auto trace = make_trace(200, 3.0, 1);
  const auto report = run(trace, /*continuous=*/true);
  EXPECT_EQ(report.arrived, trace.size());
  EXPECT_EQ(report.completed + report.failed, report.arrived);
  EXPECT_EQ(report.latency.count(), report.completed);
  EXPECT_GT(report.batches, 0u);
  EXPECT_GT(report.slot_occupancy.count(), 0u)
      << "continuous mode must sample slot occupancy every step";
}

TEST_F(ContinuousSimulationTest, SplicesHappenUnderSustainedLoad) {
  // Sustained pressure keeps the pending set non-empty while slots vacate,
  // so mid-batch admission must actually fire.
  const auto trace = make_trace(400, 3.0, 7, 0.5, 3.0);
  const auto report = run(trace, /*continuous=*/true);
  EXPECT_GT(report.slot_releases, 0u);
  EXPECT_GT(report.spliced_requests, 0u)
      << "no request was spliced into a vacated slot under saturation";
}

TEST_F(ContinuousSimulationTest, RunToCompletionModeReportsNoSplices) {
  const auto trace = make_trace(200, 2.0, 3);
  const auto report = run(trace, /*continuous=*/false);
  EXPECT_EQ(report.spliced_requests, 0u);
  EXPECT_EQ(report.slot_releases, 0u);
  EXPECT_EQ(report.slot_occupancy.count(), 0u);
}

TEST_F(ContinuousSimulationTest, DeterministicAcrossRuns) {
  const auto trace = make_trace(300, 2.0, 11, 0.3, 2.0);
  const auto first = run(trace, /*continuous=*/true);
  const auto second = run(trace, /*continuous=*/true);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.batches, second.batches);
  EXPECT_EQ(first.spliced_requests, second.spliced_requests);
  EXPECT_EQ(first.slot_releases, second.slot_releases);
  EXPECT_DOUBLE_EQ(first.total_utility, second.total_utility);
  EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
  EXPECT_DOUBLE_EQ(first.throughput, second.throughput);
}

TEST_F(ContinuousSimulationTest, BeatsRunToCompletionAtSaturation) {
  // The point of continuous batching: at saturating rates (paper Fig. 10
  // regime), back-filling vacated slots mid-batch strictly raises both
  // goodput and accrued utility over run-to-completion. Several saturating
  // seeds guard against a single lucky trace; bench/continuous_batching.cpp
  // sweeps the full rate grid.
  for (const std::uint64_t seed : {7ull, 11ull, 3ull, 23ull}) {
    const auto trace = make_trace(600, 3.0, seed, 0.3, 2.5);
    const auto rtc = run(trace, /*continuous=*/false);
    const auto cont = run(trace, /*continuous=*/true);
    EXPECT_GT(cont.completed, rtc.completed)
        << "continuous served fewer requests than run-to-completion (seed "
        << seed << ")";
    EXPECT_GT(cont.total_utility, rtc.total_utility) << "seed " << seed;
    EXPECT_GT(cont.throughput, rtc.throughput) << "seed " << seed;
  }
}

TEST_F(ContinuousSimulationTest, LowLoadStillServesEverything) {
  const auto trace = make_trace(5, 4.0, 2, /*slack_min=*/5.0,
                                /*slack_max=*/9.0);
  const auto report = run(trace, /*continuous=*/true);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.completed, trace.size());
}

TEST_F(ContinuousSimulationTest, WorksAcrossSchedulersAndSchemes) {
  const auto trace = make_trace(150, 2.0, 5);
  for (const char* scheduler : {"das", "slotted-das", "fcfs"}) {
    const Scheme scheme = std::string(scheduler) == "slotted-das"
                              ? Scheme::kConcatSlotted
                              : Scheme::kConcatPure;
    const auto report = run(trace, /*continuous=*/true, scheduler, scheme);
    EXPECT_EQ(report.completed + report.failed, report.arrived)
        << "conservation violated under " << scheduler;
  }
}

// ---------------------------------------------------------------------------
// Engine-backend continuous serving
// ---------------------------------------------------------------------------

TcbConfig engine_config(bool continuous) {
  TcbConfig cfg;
  cfg.model = ModelConfig::test_scale();
  cfg.sched.batch_rows = 3;
  cfg.sched.row_capacity = 24;
  cfg.scheme = Scheme::kConcatSlotted;
  cfg.scheduler = "slotted-das";
  cfg.max_decode_steps = 6;
  cfg.continuous = continuous;
  return cfg;
}

WorkloadConfig engine_workload(std::uint64_t seed) {
  WorkloadConfig w;
  w.rate = 40;
  w.duration = 1.0;
  w.min_len = 2;
  w.max_len = 12;
  w.mean_len = 6;
  w.len_variance = 4;
  w.deadline_slack_min = 1.0;
  w.deadline_slack_max = 6.0;
  w.seed = seed;
  w.with_tokens = true;
  w.vocab_size = ModelConfig::test_scale().vocab_size;
  return w;
}

TEST(ContinuousEngineTest, TokensStayBitwiseIdenticalToRunToCompletion) {
  // A request's output bits must not depend on *when* it entered a batch:
  // run-to-completion and continuous serving may schedule differently, but
  // every request completed by both must carry identical tokens.
  const auto trace = generate_trace(engine_workload(13));
  const ServeResult rtc = TcbSystem(engine_config(false)).serve(trace);
  const ServeResult cont = TcbSystem(engine_config(true)).serve(trace);

  EXPECT_EQ(cont.responses.size() + cont.failed, trace.size());
  std::map<RequestId, const Response*> rtc_by_id;
  for (const auto& resp : rtc.responses) rtc_by_id.emplace(resp.id, &resp);
  std::size_t compared = 0;
  for (const auto& resp : cont.responses) {
    const auto it = rtc_by_id.find(resp.id);
    if (it == rtc_by_id.end()) continue;
    ++compared;
    EXPECT_EQ(resp.tokens, it->second->tokens)
        << "request " << resp.id
        << " tokens depend on the serving mode (concat-equivalence broken)";
  }
  EXPECT_GT(compared, 0u) << "no overlap between the two modes' completions";
}

TEST(ContinuousEngineTest, ExactlyOnceAndDeterministic) {
  const auto trace = generate_trace(engine_workload(17));
  const TcbSystem tcb(engine_config(true));
  const ServeResult first = tcb.serve(trace);
  const ServeResult second = tcb.serve(trace);

  std::set<RequestId> ids;
  for (const auto& resp : first.responses) {
    EXPECT_TRUE(ids.insert(resp.id).second) << "duplicate id " << resp.id;
    EXPECT_GE(resp.completed_at, resp.scheduled_at);
    EXPECT_FALSE(resp.tokens.empty());
  }
  EXPECT_EQ(first.responses.size() + first.failed, trace.size());

  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.batches, second.batches);
  EXPECT_DOUBLE_EQ(first.total_utility, second.total_utility);
  EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.report.spliced_requests, second.report.spliced_requests);
  ASSERT_EQ(first.responses.size(), second.responses.size());
  for (std::size_t i = 0; i < first.responses.size(); ++i) {
    EXPECT_EQ(first.responses[i].id, second.responses[i].id);
    EXPECT_EQ(first.responses[i].tokens, second.responses[i].tokens);
    EXPECT_DOUBLE_EQ(first.responses[i].completed_at,
                     second.responses[i].completed_at);
  }
}

TEST(ContinuousEngineTest, ReportsReclaimableBytes) {
  const auto trace = generate_trace(engine_workload(23));
  const ServeResult result = TcbSystem(engine_config(true)).serve(trace);
  EXPECT_GT(result.reclaimable_kv_bytes, 0u);
  // Slotted + early cleaning returns everything that becomes reclaimable.
  EXPECT_EQ(result.early_freed_bytes, result.reclaimable_kv_bytes);
  EXPECT_GT(result.peak_kv_bytes, 0u);
}

}  // namespace
}  // namespace tcb
