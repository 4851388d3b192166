// Shared plumbing for the figure-reproduction benches: every bench builds the
// paper's workload, runs the serving simulator (or the real engine), prints
// the figure's series as an aligned table and writes it as CSV next to the
// binary.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/simulator.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace tcb::bench {

/// The paper's default serving workload (§6.2.1): 3-100 tokens, mean 20,
/// Poisson arrivals; deadline slack documented in DESIGN.md.
inline WorkloadConfig paper_workload(double rate, double variance = 20.0,
                                     std::uint64_t seed = 2022) {
  WorkloadConfig w;
  w.rate = rate;
  w.duration = fast_mode() ? 2.0 : 5.0;
  w.min_len = 3;
  w.max_len = 100;
  w.mean_len = 20.0;
  w.len_variance = variance;
  w.deadline_slack_min = 0.5;
  w.deadline_slack_max = 2.0;
  w.seed = seed;
  return w;
}

/// One serving simulation: scheme + scheduler + workload -> report.
inline ServingReport run_serving(Scheme scheme, const std::string& scheduler,
                                 const SchedulerConfig& sched_cfg,
                                 const WorkloadConfig& workload) {
  const auto trace = generate_trace(workload);
  const auto sched = make_scheduler(scheduler, sched_cfg);
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  PipelineConfig sim;
  sim.scheme = scheme;
  const ServingSimulator simulator(*sched, cost, sim);
  return simulator.run(trace);
}

/// Figure header boilerplate.
inline void print_figure_banner(const char* figure, const char* description) {
  std::printf("=== %s — %s ===\n", figure, description);
  if (fast_mode()) std::printf("(TCB_FAST=1: reduced trace duration)\n");
}

}  // namespace tcb::bench
