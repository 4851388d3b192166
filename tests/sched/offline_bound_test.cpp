#include "sched/offline_bound.hpp"

#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

Request req(RequestId id, Index len, double arrival, double deadline) {
  Request r;
  r.id = id;
  r.length = len;
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

TEST(OfflineBoundTest, EmptyTraceIsZero) {
  EXPECT_EQ(offline_utility_upper_bound({}, {}), 0.0);
}

TEST(OfflineBoundTest, AbundantCapacityCountsEverything) {
  OfflineBoundConfig cfg;
  cfg.batch_rows = 64;
  cfg.row_capacity = 100;
  cfg.batch_seconds = 0.01;
  cfg.horizon = 100.0;  // effectively unlimited budget
  const std::vector<Request> trace = {req(0, 4, 0, 1), req(1, 10, 0, 1)};
  EXPECT_NEAR(offline_utility_upper_bound(trace, cfg), 0.25 + 0.1, 1e-12);
}

TEST(OfflineBoundTest, TightBudgetTakesShortestFirstWithFractionalTail) {
  OfflineBoundConfig cfg;
  cfg.batch_rows = 1;
  cfg.row_capacity = 10;
  cfg.batch_seconds = 1.0;
  cfg.horizon = 1.0;  // budget: exactly 10 tokens
  const std::vector<Request> trace = {req(0, 8, 0, 1), req(1, 4, 0, 1)};
  // Shortest first: the 4-token request fully (0.25) + 6/8 of the other.
  EXPECT_NEAR(offline_utility_upper_bound(trace, cfg),
              0.25 + (1.0 / 8.0) * (6.0 / 8.0), 1e-12);
}

TEST(OfflineBoundTest, OversizedRequestsExcluded) {
  OfflineBoundConfig cfg;
  cfg.row_capacity = 10;
  cfg.horizon = 100.0;
  const std::vector<Request> trace = {req(0, 50, 0, 1), req(1, 5, 0, 1)};
  EXPECT_NEAR(offline_utility_upper_bound(trace, cfg), 0.2, 1e-12);
}

TEST(OfflineBoundTest, BadConfigThrows) {
  OfflineBoundConfig cfg;
  cfg.batch_seconds = 0.0;
  EXPECT_THROW((void)offline_utility_upper_bound({req(0, 1, 0, 1)}, cfg),
               std::invalid_argument);
}

TEST(OfflineBoundTest, DominatesEverySimulatedSchedule) {
  // The whole point: no online run may exceed the offline bound.
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  for (const double rate : {100.0, 400.0, 800.0}) {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = 3.0;
    w.seed = 31;
    const auto trace = generate_trace(w);

    SchedulerConfig sc;
    sc.batch_rows = 16;
    sc.row_capacity = 100;

    // Budget from a representative full batch priced by the cost model.
    BatchPlan full;
    full.scheme = Scheme::kConcatPure;
    full.row_capacity = sc.row_capacity;
    for (Index r = 0; r < sc.batch_rows; ++r) {
      RowLayout row;
      row.width = sc.row_capacity;
      for (Index off = 0; off < sc.row_capacity; off += 20)
        row.segments.push_back(
            Segment{r * 5 + off / 20, off, 20, 0});
      full.rows.push_back(std::move(row));
    }
    OfflineBoundConfig bound_cfg;
    bound_cfg.batch_rows = sc.batch_rows;
    bound_cfg.row_capacity = sc.row_capacity;
    bound_cfg.batch_seconds = cost.batch_seconds(full);
    // Utility-relevant service ends at the last deadline (arrival + max
    // slack), plus the batch then in flight.
    bound_cfg.horizon = w.duration + 2.0 + bound_cfg.batch_seconds;
    const double bound = offline_utility_upper_bound(trace, bound_cfg);

    for (const auto& name : {"das", "sjf", "fcfs", "def", "sjf-full"}) {
      const auto sched = make_scheduler(name, sc);
      PipelineConfig sim;
      sim.scheme = Scheme::kConcatPure;
      const auto report = ServingSimulator(*sched, cost, sim).run(trace);
      EXPECT_LE(report.total_utility, bound * 1.0001)
          << name << " at rate " << rate;
    }
  }
}

}  // namespace
}  // namespace tcb
