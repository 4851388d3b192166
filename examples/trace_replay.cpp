// Trace persistence and replay: generate a workload trace, save it to CSV,
// load it back, and replay it through the serving simulator under every
// batching scheme. Demonstrates the workload tooling a user needs to test
// TCB against their own recorded traffic.
//
//   ./examples/trace_replay [path]
#include <cstdio>

#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "util/table.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace tcb;
  const std::string path = argc > 1 ? argv[1] : "replay_trace.csv";

  // 1. Record: generate and persist a trace.
  WorkloadConfig w;
  w.rate = 300;
  w.duration = 3.0;
  w.seed = 7;
  const auto original = generate_trace(w);
  save_trace(path, original);
  std::printf("saved %zu requests to %s\n", original.size(), path.c_str());

  // 2. Replay: load and serve under each scheme with the DAS scheduler.
  const auto trace = load_trace(path);
  SchedulerConfig sc;
  sc.batch_rows = 32;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());

  TablePrinter table({"scheme", "scheduler", "completed", "failed", "utility",
                      "throughput (resp/s)", "avg occupancy"});
  struct Setup {
    Scheme scheme;
    const char* scheduler;
  };
  for (const Setup s : {Setup{Scheme::kNaive, "das"},
                        Setup{Scheme::kTurbo, "das"},
                        Setup{Scheme::kConcatPure, "das"},
                        Setup{Scheme::kConcatSlotted, "slotted-das"}}) {
    const auto sched = make_scheduler(s.scheduler, sc);
    PipelineConfig sim;
    sim.scheme = s.scheme;
    const auto report = ServingSimulator(*sched, cost, sim).run(trace);
    table.row({scheme_name(s.scheme), report.scheduler,
               std::to_string(report.completed),
               std::to_string(report.failed),
               format_number(report.total_utility),
               format_number(report.throughput),
               report.batch_occupancy.empty()
                   ? "-"
                   : format_number(report.batch_occupancy.mean())});
  }
  table.print();
  std::printf("\nreplayed %zu requests from %s under four batching schemes\n",
              trace.size(), path.c_str());
  return 0;
}
