#include "serving/simulator.hpp"

#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : cost_(ModelConfig::paper_scale(), HardwareProfile::v100_like()) {
    sched_cfg_.batch_rows = 16;
    sched_cfg_.row_capacity = 100;
  }

  std::vector<Request> make_trace(double rate, double duration,
                                  std::uint64_t seed,
                                  double slack_min = 0.5,
                                  double slack_max = 2.0) const {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = duration;
    w.seed = seed;
    w.deadline_slack_min = slack_min;
    w.deadline_slack_max = slack_max;
    return generate_trace(w);
  }

  SchedulerConfig sched_cfg_;
  AnalyticalCostModel cost_;
};

TEST_F(SimulatorTest, ConservationOfRequests) {
  const auto trace = make_trace(100, 5.0, 1);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const ServingSimulator simulator(*das, cost_, sim);
  const auto report = simulator.run(trace);
  EXPECT_EQ(report.arrived, trace.size());
  EXPECT_EQ(report.completed + report.failed, report.arrived);
  EXPECT_EQ(report.latency.count(), report.completed);
}

TEST_F(SimulatorTest, LowLoadServesEverything) {
  const auto trace = make_trace(5, 4.0, 2, /*slack_min=*/5.0, /*slack_max=*/9.0);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const ServingSimulator simulator(*das, cost_, sim);
  const auto report = simulator.run(trace);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.completed, trace.size());
}

TEST_F(SimulatorTest, UtilityMatchesServedRequests) {
  const auto trace = make_trace(20, 3.0, 3, 5.0, 9.0);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const ServingSimulator simulator(*das, cost_, sim);
  const auto report = simulator.run(trace);
  ASSERT_EQ(report.failed, 0u);
  double expected = 0.0;
  for (const auto& r : trace) expected += r.utility();
  EXPECT_NEAR(report.total_utility, expected, 1e-9);
}

TEST_F(SimulatorTest, OverloadDropsRequestsButNeverCrashes) {
  const auto trace = make_trace(3000, 1.0, 4, 0.05, 0.2);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const ServingSimulator simulator(*das, cost_, sim);
  const auto report = simulator.run(trace);
  EXPECT_GT(report.failed, 0u);
  EXPECT_EQ(report.completed + report.failed, report.arrived);
}

TEST_F(SimulatorTest, AllSchemesAndSchedulersRun) {
  const auto trace = make_trace(150, 2.0, 5);
  for (const auto scheme : {Scheme::kNaive, Scheme::kTurbo,
                            Scheme::kConcatPure, Scheme::kConcatSlotted}) {
    for (const auto& name : scheduler_names()) {
      const auto sched = make_scheduler(name, sched_cfg_);
      PipelineConfig sim;
      sim.scheme = scheme;
      sim.fixed_slot_len = 50;  // for slotted runs without Slotted-DAS
      const ServingSimulator simulator(*sched, cost_, sim);
      const auto report = simulator.run(trace);
      EXPECT_EQ(report.completed + report.failed, report.arrived)
          << scheme_name(scheme) << "/" << name;
      EXPECT_GT(report.batches, 0u) << scheme_name(scheme) << "/" << name;
    }
  }
}

TEST_F(SimulatorTest, ConcatBeatsNaiveUnderLoad) {
  // The paper's core serving claim at the simulator level: with the same
  // scheduler and overload, ConcatBatching completes more requests.
  const auto trace = make_trace(800, 3.0, 6, 0.3, 1.0);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig naive_sim;
  naive_sim.scheme = Scheme::kNaive;
  PipelineConfig concat_sim;
  concat_sim.scheme = Scheme::kConcatPure;
  const auto naive_report = ServingSimulator(*das, cost_, naive_sim).run(trace);
  const auto concat_report =
      ServingSimulator(*das, cost_, concat_sim).run(trace);
  EXPECT_GT(concat_report.completed, naive_report.completed);
  EXPECT_GT(concat_report.total_utility, naive_report.total_utility);
}

TEST_F(SimulatorTest, ThroughputNormalizedBySimulationHorizon) {
  const auto trace = make_trace(50, 2.0, 7, 5.0, 9.0);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const auto report = ServingSimulator(*das, cost_, sim).run(trace);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_NEAR(report.throughput,
              static_cast<double>(report.completed) /
                  std::max(report.makespan, 2.0),
              1e-9);
}

TEST_F(SimulatorTest, EmptyTrace) {
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const auto report = ServingSimulator(*das, cost_, sim).run({});
  EXPECT_EQ(report.arrived, 0u);
  EXPECT_EQ(report.batches, 0u);
  EXPECT_EQ(report.throughput, 0.0);
}

TEST_F(SimulatorTest, MaxBatchesSafetyValveStops) {
  const auto trace = make_trace(500, 2.0, 8);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  sim.max_batches = 2;
  const auto report = ServingSimulator(*das, cost_, sim).run(trace);
  EXPECT_EQ(report.batches, 2u);
  EXPECT_EQ(report.completed + report.failed, report.arrived);
}

TEST_F(SimulatorTest, SchedulerOverheadIsTracked) {
  const auto trace = make_trace(300, 2.0, 9);
  const auto das = make_scheduler("das", sched_cfg_);
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const auto report = ServingSimulator(*das, cost_, sim).run(trace);
  EXPECT_GT(report.scheduler_seconds, 0.0);
  EXPECT_LT(report.scheduler_seconds, report.busy_seconds);
}

}  // namespace
}  // namespace tcb
