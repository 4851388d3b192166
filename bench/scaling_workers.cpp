// Scale-out extension (not a paper figure): throughput and utility of
// DAS-TCB when 1-8 accelerators share the pending queue, at a rate that
// overloads a single worker. Complements the paper's single-V100 evaluation.
// Also prints the pipeline's per-stage overhead (WallClock: admission /
// selection / batching host milliseconds) and per-worker simulated busy
// time, so scaling studies can see where coordinator time goes.
#include <algorithm>

#include "common.hpp"

int main() {
  using namespace tcb;
  using namespace tcb::bench;
  print_figure_banner("Extension", "multi-accelerator scaling of DAS-TCB");

  SchedulerConfig sc;
  sc.batch_rows = 32;
  sc.row_capacity = 100;
  const auto workload = paper_workload(/*rate=*/1200);
  const auto trace = generate_trace(workload);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());

  TablePrinter table({"workers", "throughput (resp/s)", "utility", "completed",
                      "failed", "p95 latency (s)", "speedup vs 1",
                      "stage adm/sched/batch (ms)", "busy min/max (s)"});
  CsvWriter csv("scaling_workers.csv",
                {"workers", "throughput", "utility", "completed", "failed",
                 "admission_seconds", "scheduler_seconds", "batching_seconds",
                 "execute_seconds", "worker_busy_min", "worker_busy_max"});
  double base = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const auto sched = make_scheduler("das", sc);
    PipelineConfig sim;
    sim.scheme = Scheme::kConcatPure;
    sim.workers = workers;
    const auto report = ServingSimulator(*sched, cost, sim).run(trace);
    if (workers == 1) base = report.throughput;
    const auto [busy_min, busy_max] =
        std::minmax_element(report.worker_busy_seconds.begin(),
                            report.worker_busy_seconds.end());
    const std::string stage_ms =
        format_number(report.admission_seconds * 1e3) + "/" +
        format_number(report.scheduler_seconds * 1e3) + "/" +
        format_number(report.batching_seconds * 1e3);
    table.row({std::to_string(workers), format_number(report.throughput),
               format_number(report.total_utility),
               std::to_string(report.completed),
               std::to_string(report.failed),
               report.latency.empty() ? "-" : format_number(report.latency.p95()),
               format_number(report.throughput / base), stage_ms,
               format_number(*busy_min) + "/" + format_number(*busy_max)});
    csv.row_numeric({static_cast<double>(workers), report.throughput,
                     report.total_utility,
                     static_cast<double>(report.completed),
                     static_cast<double>(report.failed),
                     report.admission_seconds, report.scheduler_seconds,
                     report.batching_seconds, report.execute_seconds,
                     *busy_min, *busy_max});
  }
  table.print();
  std::printf("series written to %s\n", "scaling_workers.csv");
  return 0;
}
