#include "serving/simulator.hpp"

namespace tcb {

ServingSimulator::ServingSimulator(const Scheduler& scheduler,
                                   const CostModel& cost, PipelineConfig cfg)
    : scheduler_(scheduler), cost_(cost), cfg_(cfg) {
  cfg_.validate();
}

ServingReport ServingSimulator::run(const std::vector<Request>& trace) const {
  const AnalyticalBackend backend(cost_);
  const WallClock clock;
  const ServingPipeline pipeline(scheduler_, backend, clock, cfg_);
  return pipeline.run(trace).report;
}

}  // namespace tcb
