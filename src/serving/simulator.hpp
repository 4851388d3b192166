// Discrete-event serving simulator (paper §3 / §5.1 system model): one or
// more accelerators serve batches priced by a CostModel; whenever a worker
// goes idle the scheduler selects from the pending set, the scheme's batcher
// lays the selection out, and simulated time advances by the batch price.
//
// Since the pipeline refactor (DESIGN.md §10) this class is a thin
// configuration of ServingPipeline: AnalyticalBackend (price, don't
// execute) + WallClock (reports quote real stage overheads — Fig. 16 needs
// scheduler_seconds). TcbSystem::simulate is the VirtualClock flavor.
#pragma once

#include "sched/scheduler.hpp"
#include "serving/cost_model.hpp"
#include "serving/pipeline.hpp"

namespace tcb {

class ServingSimulator {
 public:
  /// Validates `cfg` eagerly (PipelineConfig::validate), so
  /// misconfiguration surfaces at construction, not first run.
  ServingSimulator(const Scheduler& scheduler, const CostModel& cost,
                   PipelineConfig cfg);

  /// Runs the whole trace to completion (every request served or expired).
  /// `trace` must be sorted by arrival. Throughput is normalized by
  /// max(makespan, trace duration).
  [[nodiscard]] ServingReport run(const std::vector<Request>& trace) const;

 private:
  const Scheduler& scheduler_;
  const CostModel& cost_;
  PipelineConfig cfg_;
};

}  // namespace tcb
