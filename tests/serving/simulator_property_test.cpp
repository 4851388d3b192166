// Metamorphic properties of the serving simulator: relaxing deadlines never
// hurts, shrinking geometry never helps, and reports stay internally
// consistent across randomized operating points.
#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

class SimulatorMetamorphicTest : public ::testing::Test {
 protected:
  SimulatorMetamorphicTest()
      : cost_(ModelConfig::paper_scale(), HardwareProfile::v100_like()) {}

  ServingReport run(const std::vector<Request>& trace, Index rows, Index L,
                    const std::string& scheduler = "das") const {
    SchedulerConfig sc;
    sc.batch_rows = rows;
    sc.row_capacity = L;
    const auto sched = make_scheduler(scheduler, sc);
    PipelineConfig sim;
    sim.scheme = Scheme::kConcatPure;
    return ServingSimulator(*sched, cost_, sim).run(trace);
  }

  static std::vector<Request> trace_at(double rate, std::uint64_t seed,
                                       double slack_scale = 1.0) {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = 2.5;
    w.seed = seed;
    w.deadline_slack_min = 0.4 * slack_scale;
    w.deadline_slack_max = 1.5 * slack_scale;
    return generate_trace(w);
  }

  AnalyticalCostModel cost_;
};

TEST_F(SimulatorMetamorphicTest, LooserDeadlinesNeverReduceUtility) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    // Same arrivals/lengths (same seed), 4x looser deadlines.
    const auto tight = trace_at(400, seed, 1.0);
    const auto loose = trace_at(400, seed, 4.0);
    ASSERT_EQ(tight.size(), loose.size());
    const auto tight_report = run(tight, 16, 100);
    const auto loose_report = run(loose, 16, 100);
    EXPECT_GE(loose_report.total_utility + 1e-9, tight_report.total_utility)
        << "seed " << seed;
    EXPECT_GE(loose_report.completed, tight_report.completed);
  }
}

TEST_F(SimulatorMetamorphicTest, BiggerBatchGeometryNeverHurtsUnderOverload) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const auto trace = trace_at(500, seed);
    const auto small = run(trace, 4, 100);
    const auto large = run(trace, 32, 100);
    EXPECT_GE(large.completed + 5, small.completed) << "seed " << seed;
    EXPECT_GE(large.total_utility * 1.02 + 1e-9, small.total_utility);
  }
}

TEST_F(SimulatorMetamorphicTest, ReportInternalConsistency) {
  Rng rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    const double rate = rng.uniform(50.0, 900.0);
    const auto trace = trace_at(rate, 100 + static_cast<std::uint64_t>(iter));
    const auto report = run(trace, 16, 100);

    EXPECT_EQ(report.completed + report.failed, report.arrived);
    EXPECT_EQ(report.latency.count(), report.completed);
    EXPECT_EQ(report.batch_seconds.count(), report.batches);
    if (report.batches > 0) {
      EXPECT_NEAR(report.batch_seconds.sum(), report.busy_seconds, 1e-9);
      // A single worker can never be busy longer than the simulated span.
      EXPECT_LE(report.busy_seconds, report.makespan + 1e-9);
      EXPECT_GE(report.batch_requests.min(), 1.0);
    }
    double utility_cap = 0.0;
    for (const auto& r : trace) utility_cap += r.utility();
    EXPECT_LE(report.total_utility, utility_cap + 1e-9);
    if (report.completed > 0) {
      EXPECT_GT(report.latency.min(), 0.0);
      // Every served request was scheduled by its deadline, so its latency
      // is bounded by max slack + one batch time.
      EXPECT_LE(report.latency.max(),
                1.5 + report.batch_seconds.max() + 1e-9);
    }
  }
}

TEST_F(SimulatorMetamorphicTest, DeterministicAcrossRuns) {
  const auto trace = trace_at(300, 42);
  const auto a = run(trace, 16, 100);
  const auto b = run(trace, 16, 100);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_DOUBLE_EQ(a.total_utility, b.total_utility);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
}

TEST_F(SimulatorMetamorphicTest, QueueDepthTrackedAtEveryDecision) {
  const auto trace = trace_at(400, 17);
  const auto report = run(trace, 16, 100);
  EXPECT_EQ(report.queue_depth.count(), report.batches);
  if (!report.queue_depth.empty()) {
    EXPECT_GE(report.queue_depth.min(), 1.0);
  }
}

}  // namespace
}  // namespace tcb
