// Scheduler playground: sweep arrival rate x scheduling policy on the
// cost-model simulator and print total utility, completions and drops —
// a quick way to see where deadline-aware scheduling (DAS) pays off against
// FCFS / SJF / DEF.
//
//   ./examples/scheduler_playground [B] [L] [duration_s] [slack_min] [slack_max]
#include <cstdio>
#include <cstdlib>

#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tcb;

  SchedulerConfig sc;
  sc.batch_rows = argc > 1 ? std::atoll(argv[1]) : 16;
  sc.row_capacity = argc > 2 ? std::atoll(argv[2]) : 100;
  const double duration = argc > 3 ? std::atof(argv[3]) : 5.0;
  const double slack_min = argc > 4 ? std::atof(argv[4]) : 0.5;
  const double slack_max = argc > 5 ? std::atof(argv[5]) : 2.0;

  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());

  std::printf("B=%lld L=%lld duration=%.1fs slack=[%.2f, %.2f]s\n",
              static_cast<long long>(sc.batch_rows),
              static_cast<long long>(sc.row_capacity), duration, slack_min,
              slack_max);

  TablePrinter table({"rate", "scheduler", "utility", "completed", "failed",
                      "p95 latency (s)"});
  for (const double rate : {50.0, 100.0, 200.0, 300.0, 500.0, 800.0}) {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = duration;
    w.deadline_slack_min = slack_min;
    w.deadline_slack_max = slack_max;
    w.seed = 2024;
    const auto trace = generate_trace(w);
    for (const auto& name : {"das", "sjf", "fcfs", "def"}) {
      const auto sched = make_scheduler(name, sc);
      PipelineConfig sim;
      sim.scheme = Scheme::kConcatPure;
      const auto report = ServingSimulator(*sched, cost, sim).run(trace);
      table.row({format_number(rate), report.scheduler,
                 format_number(report.total_utility),
                 std::to_string(report.completed),
                 std::to_string(report.failed),
                 report.latency.empty() ? "-"
                                        : format_number(report.latency.p95())});
    }
  }
  table.print();
  return 0;
}
