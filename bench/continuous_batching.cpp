// Continuous iteration-level batching vs run-to-completion (DESIGN.md §15).
//
// Successor of the memory_cleaning bench: early memory cleaning (§4.2.2)
// frees a slot's K/V cache the moment its last request finishes; this bench
// measures what happens when the freed slot becomes a *scheduling* resource
// — the serving loop splices waiting requests into vacated spans between
// decoder iterations instead of waiting for the whole batch to retire.
//
// Sweep: Slotted-DAS at the paper's serving workload across the Fig. 9/10
// rate grid, run-to-completion vs continuous, aggregated over several trace
// seeds. Expected shape: identical service below saturation (nothing queues
// long enough to splice), then a widening goodput/utility gap once the
// accelerator saturates — backfilled slots keep the iteration kernel full
// where run-to-completion decays toward a sparse tail. The CSV is the
// committed evidence for that claim; scripts/check_bench_regression.py
// --continuous-csv gates it in CI (the analytical simulator is
// deterministic, so the sweep reproduces bit-for-bit on any machine).
#include <cstddef>
#include <cstdint>

#include "common.hpp"

int main() {
  using namespace tcb;
  using namespace tcb::bench;
  print_figure_banner("§4.2.2 / DESIGN.md §15",
                      "continuous batching: goodput vs run-to-completion");

  SchedulerConfig sc;
  sc.batch_rows = 16;
  sc.row_capacity = 100;

  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const std::vector<double> rates = {100, 200, 300, 400, 500, 600};
  const std::vector<std::uint64_t> seeds =
      fast_mode() ? std::vector<std::uint64_t>{2022}
                  : std::vector<std::uint64_t>{2022, 7, 19};

  struct Aggregate {
    double goodput = 0.0;        ///< completed responses / second
    double utility = 0.0;        ///< objective (9), summed over the trace
    double slot_occupancy = 0.0; ///< mean occupied-slot fraction per step
    double splice_share = 0.0;   ///< spliced / completed
  };

  const auto sweep = [&](double rate, bool continuous) {
    Aggregate agg;
    for (const std::uint64_t seed : seeds) {
      const auto trace = generate_trace(paper_workload(rate, 20.0, seed));
      const auto sched = make_scheduler("slotted-das", sc);
      PipelineConfig sim;
      sim.scheme = Scheme::kConcatSlotted;
      sim.continuous = continuous;
      const ServingSimulator simulator(*sched, cost, sim);
      const ServingReport r = simulator.run(trace);
      agg.goodput += r.throughput;
      agg.utility += r.total_utility;
      agg.slot_occupancy += r.slot_occupancy.mean();
      agg.splice_share +=
          r.completed > 0 ? static_cast<double>(r.spliced_requests) /
                                static_cast<double>(r.completed)
                          : 0.0;
    }
    const double n = static_cast<double>(seeds.size());
    agg.goodput /= n;
    agg.utility /= n;
    agg.slot_occupancy /= n;
    agg.splice_share /= n;
    return agg;
  };

  TablePrinter table({"rate (req/s)", "RTC goodput", "cont goodput",
                      "RTC utility", "cont utility", "occupancy",
                      "spliced/served", "goodput gain"});
  CsvWriter csv("continuous_batching.csv",
                {"rate", "rtc_goodput", "cont_goodput", "rtc_utility",
                 "cont_utility", "cont_slot_occupancy", "cont_splice_share"});
  for (const double rate : rates) {
    const Aggregate rtc = sweep(rate, /*continuous=*/false);
    const Aggregate cont = sweep(rate, /*continuous=*/true);
    table.row({format_number(rate), format_number(rtc.goodput),
               format_number(cont.goodput), format_number(rtc.utility),
               format_number(cont.utility),
               format_number(cont.slot_occupancy),
               format_number(cont.splice_share),
               format_number(cont.goodput / rtc.goodput)});
    csv.row_numeric({rate, rtc.goodput, cont.goodput, rtc.utility,
                     cont.utility, cont.slot_occupancy, cont.splice_share});
  }
  table.print();
  std::printf("series written to %s\n", "continuous_batching.csv");
  return 0;
}
