#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

TEST(ServingReportTest, SummaryNamesSchedulerSchemeAndCounts) {
  WorkloadConfig w;
  w.rate = 100;
  w.duration = 1.0;
  w.seed = 3;
  const auto trace = generate_trace(w);
  SchedulerConfig sc;
  sc.batch_rows = 8;
  sc.row_capacity = 100;
  const auto das = make_scheduler("das", sc);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatPure;
  const auto report = ServingSimulator(*das, cost, sim).run(trace);

  const std::string s = report.summary();
  EXPECT_NE(s.find("DAS"), std::string::npos);
  EXPECT_NE(s.find("concat-pure"), std::string::npos);
  EXPECT_NE(s.find("arrived=" + std::to_string(report.arrived)),
            std::string::npos);
  EXPECT_NE(s.find("completed=" + std::to_string(report.completed)),
            std::string::npos);
  EXPECT_NE(s.find("throughput="), std::string::npos);
}

TEST(ServingReportTest, FreshReportIsEmpty) {
  const ServingReport report;
  EXPECT_EQ(report.arrived, 0u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.total_utility, 0.0);
  EXPECT_TRUE(report.latency.empty());
}

}  // namespace
}  // namespace tcb
