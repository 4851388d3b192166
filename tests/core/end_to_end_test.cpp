// Cross-module integration sweeps: run the full serving simulation grid the
// benches use (schemes x schedulers x load levels) at reduced scale and
// assert the paper's qualitative findings plus global invariants.
#include <gtest/gtest.h>

#include "batching/concat_batcher.hpp"
#include "batching/slotted_batcher.hpp"
#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"

namespace tcb {
namespace {

struct SweepParam {
  Scheme scheme;
  const char* scheduler;
  double rate;
};

// Deterministic test names; the default byte dump would print the scheduler
// pointer and struct padding, which change from one process to the next.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << scheme_name(p.scheme) << "_" << p.scheduler << "_rate" << p.rate;
}

class ServingSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ServingSweepTest, InvariantsHoldAcrossTheGrid) {
  const SweepParam p = GetParam();
  WorkloadConfig w;
  w.rate = p.rate;
  w.duration = 2.0;
  w.seed = 21;
  const auto trace = generate_trace(w);

  SchedulerConfig sc;
  sc.batch_rows = 16;
  sc.row_capacity = 100;
  const auto sched = make_scheduler(p.scheduler, sc);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  PipelineConfig sim;
  sim.scheme = p.scheme;
  sim.fixed_slot_len = 50;
  const auto report = ServingSimulator(*sched, cost, sim).run(trace);

  // Conservation and sanity invariants.
  EXPECT_EQ(report.completed + report.failed, report.arrived);
  EXPECT_GE(report.total_utility, 0.0);
  EXPECT_LE(report.busy_seconds, report.makespan + 1e-9);
  if (report.completed > 0) {
    EXPECT_GT(report.latency.min(), 0.0);
    EXPECT_LE(report.batch_occupancy.max(), 1.0 + 1e-9);
  }
  // Utility can never exceed the sum over all arrivals.
  double cap = 0.0;
  for (const auto& r : trace) cap += r.utility();
  EXPECT_LE(report.total_utility, cap + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServingSweepTest,
    ::testing::Values(
        SweepParam{Scheme::kNaive, "das", 100}, SweepParam{Scheme::kNaive, "fcfs", 400},
        SweepParam{Scheme::kTurbo, "das", 100}, SweepParam{Scheme::kTurbo, "sjf", 400},
        SweepParam{Scheme::kConcatPure, "das", 100},
        SweepParam{Scheme::kConcatPure, "def", 400},
        SweepParam{Scheme::kConcatSlotted, "slotted-das", 100},
        SweepParam{Scheme::kConcatSlotted, "slotted-das", 400}));

TEST(PaperClaimsTest, ConcatSustainsHigherLoadThanBaselines) {
  // Fig. 9/10's qualitative core: at saturating load, DAS-TCB completes more
  // than DAS-TTB which completes more than DAS-TNB.
  WorkloadConfig w;
  w.rate = 700;
  w.duration = 3.0;
  w.seed = 23;
  const auto trace = generate_trace(w);
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const auto das = make_scheduler("das", sc);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());

  auto run = [&](Scheme scheme) {
    PipelineConfig sim;
    sim.scheme = scheme;
    return ServingSimulator(*das, cost, sim).run(trace);
  };
  const auto tnb = run(Scheme::kNaive);
  const auto ttb = run(Scheme::kTurbo);
  const auto tcb = run(Scheme::kConcatPure);
  EXPECT_GT(tcb.completed, ttb.completed);
  EXPECT_GT(ttb.completed, tnb.completed);
  EXPECT_GT(tcb.total_utility, ttb.total_utility);
  EXPECT_GT(ttb.total_utility, tnb.total_utility);
}

TEST(PaperClaimsTest, DasBeatsBaselineSchedulersOnUtility) {
  // Fig. 15's qualitative core at one operating point.
  WorkloadConfig w;
  w.rate = 500;
  w.duration = 3.0;
  w.seed = 29;
  const auto trace = generate_trace(w);
  SchedulerConfig sc;
  sc.batch_rows = 16;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());

  auto run = [&](const std::string& name) {
    const auto sched = make_scheduler(name, sc);
    PipelineConfig sim;
    sim.scheme = Scheme::kConcatPure;
    return ServingSimulator(*sched, cost, sim).run(trace).total_utility;
  };
  const double das = run("das");
  EXPECT_GT(das, run("fcfs"));
  EXPECT_GT(das, run("def"));
  // SJF also chases short requests; DAS must at least match it.
  EXPECT_GE(das * 1.02, run("sjf"));
}

TEST(PaperClaimsTest, SlottedReducesModeledBatchTime) {
  // Fig. 13/14 at cost-model level: same payload, slotted plans are cheaper,
  // monotonically until slot overheads flatten out.
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  std::vector<Request> reqs;
  for (int i = 0; i < 40; ++i) {
    Request r;
    r.id = i;
    r.length = 40;
    reqs.push_back(std::move(r));
  }
  const ConcatBatcher pure;
  const double pure_time = cost.batch_seconds(pure.build(reqs, Row{4}, Col{400}).plan);
  const SlottedConcatBatcher slotted(40);
  const double slot_time = cost.batch_seconds(slotted.build(reqs, Row{4}, Col{400}).plan);
  EXPECT_LT(slot_time, pure_time);
}

}  // namespace
}  // namespace tcb
