// Slotted-DAS end-to-end: the scheduler's per-batch slot size must actually
// govern the batch layout in both the simulator and the engine-backed path.
#include <gtest/gtest.h>

#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"

namespace tcb {
namespace {

TEST(SlottedIntegrationTest, SimulatorUsesSchedulerChosenSlotLen) {
  WorkloadConfig w;
  w.rate = 200;
  w.duration = 2.0;
  w.seed = 77;
  const auto trace = generate_trace(w);

  SchedulerConfig sc;
  sc.batch_rows = 16;
  sc.row_capacity = 100;
  const auto sched = make_scheduler("slotted-das", sc);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  PipelineConfig sim;
  sim.scheme = Scheme::kConcatSlotted;
  sim.fixed_slot_len = 0;  // must come from the scheduler
  const auto report = ServingSimulator(*sched, cost, sim).run(trace);
  EXPECT_EQ(report.completed + report.failed, report.arrived);
  EXPECT_GT(report.batches, 0u);
}

TEST(SlottedIntegrationTest, SlottedSystemNeverServesFewerThanHalfOfPure) {
  // Slotting trades a little capacity (slot fragmentation / discards) for
  // speed; end to end the two TCB variants should be in the same league.
  WorkloadConfig w;
  w.rate = 500;
  w.duration = 3.0;
  w.seed = 78;
  const auto trace = generate_trace(w);

  SchedulerConfig sc;
  sc.batch_rows = 32;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());

  const auto das = make_scheduler("das", sc);
  PipelineConfig pure_sim;
  pure_sim.scheme = Scheme::kConcatPure;
  const auto pure = ServingSimulator(*das, cost, pure_sim).run(trace);

  const auto slotted_das = make_scheduler("slotted-das", sc);
  PipelineConfig slot_sim;
  slot_sim.scheme = Scheme::kConcatSlotted;
  const auto slotted =
      ServingSimulator(*slotted_das, cost, slot_sim).run(trace);

  EXPECT_GT(slotted.completed * 2, pure.completed);
  EXPECT_GT(slotted.total_utility * 2, pure.total_utility);
}

TEST(SlottedIntegrationTest, EngineServeRespectsSlotBoundaries) {
  // Run the engine-backed path with Slotted-DAS; everything must be placed
  // within slots (validate() enforces it inside the engine) and outputs must
  // exist for every served request.
  TcbConfig cfg;
  cfg.model = ModelConfig::test_scale();
  cfg.sched.batch_rows = 4;
  cfg.sched.row_capacity = 24;
  cfg.scheme = Scheme::kConcatSlotted;
  cfg.scheduler = "slotted-das";
  cfg.max_decode_steps = 4;
  const TcbSystem tcb(cfg);

  WorkloadConfig w;
  w.rate = 40;
  w.duration = 1.0;
  w.min_len = 2;
  w.max_len = 16;
  w.mean_len = 6;
  w.len_variance = 8;
  w.deadline_slack_min = 5.0;
  w.deadline_slack_max = 9.0;
  w.with_tokens = true;
  w.vocab_size = cfg.model.vocab_size;
  w.seed = 79;
  const auto trace = generate_trace(w);

  const auto result = tcb.serve(trace);
  EXPECT_EQ(result.responses.size() + result.failed, trace.size());
  for (const auto& resp : result.responses) EXPECT_FALSE(resp.tokens.empty());
  // Early cleaning is on by default for the slotted scheme; with mixed
  // random lengths at least some memory should be freed before batch end.
  EXPECT_GT(result.batches, 0u);
}

}  // namespace
}  // namespace tcb
