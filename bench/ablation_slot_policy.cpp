// Ablation (design choice, paper §5.3 / Algorithm 2): the Slotted-DAS rule
// "slot size = longest request in the utility-dominant set" vs fixed slot
// sizes. A slot that is too small discards requests (they do not fit any
// slot); a slot that is too large leaves redundancy. Algorithm 2's adaptive
// choice should track the best fixed size without tuning.
#include "common.hpp"

int main() {
  using namespace tcb;
  using namespace tcb::bench;
  print_figure_banner("Ablation", "slot-size policy for slotted ConcatBatching");

  SchedulerConfig sc;
  sc.batch_rows = 16;
  sc.row_capacity = 100;
  const auto workload = paper_workload(300);

  TablePrinter table({"policy", "utility", "completed", "failed"});
  CsvWriter csv("ablation_slot_policy.csv",
                {"policy", "utility", "completed", "failed"});

  auto emit = [&](const std::string& name, const ServingReport& report) {
    table.row({name, format_number(report.total_utility),
               std::to_string(report.completed),
               std::to_string(report.failed)});
    csv.row({name, format_number(report.total_utility),
             std::to_string(report.completed),
             std::to_string(report.failed)});
  };

  // Adaptive: Slotted-DAS chooses z per batch (Algorithm 2).
  emit("slotted-das (adaptive z)",
       run_serving(Scheme::kConcatSlotted, "slotted-das", sc, workload));

  // Fixed z: DAS selection, slotted layout with a hard-coded slot size.
  for (const Index z : {10, 20, 40, 60, 100}) {
    const auto trace = generate_trace(workload);
    const auto sched = make_scheduler("das", sc);
    const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                   HardwareProfile::v100_like());
    PipelineConfig sim;
    sim.scheme = Scheme::kConcatSlotted;
    sim.fixed_slot_len = z;
    const auto report = ServingSimulator(*sched, cost, sim).run(trace);
    emit("fixed z=" + std::to_string(z), report);
  }

  // Reference: pure ConcatBatching (z = L, no slotting).
  emit("pure concat",
       run_serving(Scheme::kConcatPure, "das", sc, workload));

  table.print();
  std::printf("series written to %s\n", "ablation_slot_policy.csv");
  return 0;
}
