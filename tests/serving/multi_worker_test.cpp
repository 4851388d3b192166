// Multi-accelerator serving (scale-out extension of the paper's single-V100
// setup): N workers share the pending queue; each idle worker pulls the
// scheduler's next selection.
#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

class MultiWorkerTest : public ::testing::Test {
 protected:
  MultiWorkerTest()
      : cost_(ModelConfig::paper_scale(), HardwareProfile::v100_like()) {
    sched_cfg_.batch_rows = 16;
    sched_cfg_.row_capacity = 100;
  }

  ServingReport run(std::size_t workers, double rate,
                    std::uint64_t seed = 5) const {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = 3.0;
    w.seed = seed;
    const auto trace = generate_trace(w);
    const auto das = make_scheduler("das", sched_cfg_);
    PipelineConfig sim;
    sim.scheme = Scheme::kConcatPure;
    sim.workers = workers;
    return ServingSimulator(*das, cost_, sim).run(trace);
  }

  SchedulerConfig sched_cfg_;
  AnalyticalCostModel cost_;
};

TEST_F(MultiWorkerTest, ZeroWorkersRejected) {
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.workers = 0;
  EXPECT_THROW(ServingSimulator(*das, cost_, sim), std::invalid_argument);
}

TEST_F(MultiWorkerTest, ConservationHoldsForAnyWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const auto report = run(workers, 600);
    EXPECT_EQ(report.completed + report.failed, report.arrived)
        << workers << " workers";
  }
}

TEST_F(MultiWorkerTest, MoreWorkersServeMoreUnderOverload) {
  const auto one = run(1, 800);
  const auto four = run(4, 800);
  EXPECT_GT(one.failed, 0u);  // genuinely overloaded for one worker
  EXPECT_GT(four.completed, one.completed);
  EXPECT_GT(four.total_utility, one.total_utility);
}

TEST_F(MultiWorkerTest, LowLoadUnaffectedByExtraWorkers) {
  const auto one = run(1, 20);
  const auto four = run(4, 20);
  EXPECT_EQ(one.completed, one.arrived);
  EXPECT_EQ(four.completed, four.arrived);
}

TEST_F(MultiWorkerTest, BusyTimeCanExceedMakespanWithParallelWorkers) {
  // Total accelerator-seconds across 4 workers may exceed the wall-clock
  // makespan — the defining property of parallel service.
  const auto report = run(4, 800);
  EXPECT_GT(report.busy_seconds, 0.0);
  EXPECT_LE(report.busy_seconds, 4.0 * report.makespan + 1e-9);
}

TEST_F(MultiWorkerTest, LatencyImprovesWithWorkers) {
  const auto one = run(1, 500);
  const auto four = run(4, 500);
  ASSERT_FALSE(one.latency.empty());
  ASSERT_FALSE(four.latency.empty());
  EXPECT_LT(four.latency.p95(), one.latency.p95() * 1.05);
}

}  // namespace
}  // namespace tcb
