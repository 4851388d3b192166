// The benchmark's workloads and how one pass serves them.
//
// Every workload runs the real ServingPipeline with one worker, Slotted-DAS
// and slotted ConcatBatching (the paper's full system), L = 100. Engine
// workloads use the default ModelConfig (d = 128, 3 + 3 layers) with outputs
// capped at the source length (at most 32 tokens). Why each workload exists
// is recorded in its `why` string and in README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "serving/cost_model.hpp"
#include "serving/pipeline.hpp"

namespace servebench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  bool analytical = false;   ///< AnalyticalBackend at paper scale
  bool continuous = false;   ///< iteration-level batching with splicing
  bool burst = false;        ///< everything at t = 0, no binding deadline
  /// Time first token and latency from admission on the wall clock (for
  /// arrivals that live on the analytical clock).
  bool from_admission = false;
  Index rows = 8;
  double rate = 0;           ///< Poisson arrivals, req/s
  double duration = 0;       ///< trace length, s
  std::size_t burst_requests = 0;
  /// Independent traces served one after another, each through a fresh
  /// pipeline run (the seed of episode k is derived from the pass seed).
  std::size_t episodes = 1;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);

/// Everything one pass needs, built from the workload and the seed.
struct Setup {
  const WorkloadSpec* spec = nullptr;
  tcb::InferenceOptions opts;
  std::shared_ptr<const tcb::Seq2SeqModel> model;  ///< null when analytical
  std::unique_ptr<tcb::AnalyticalCostModel> cost;  ///< prices the clock
  std::unique_ptr<tcb::Scheduler> scheduler;
  std::unique_ptr<tcb::ExecutionBackend> backend;
  tcb::PipelineConfig pipe;
  std::vector<std::vector<tcb::Request>> episodes;  ///< traces, in order
};

[[nodiscard]] Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed);

/// Gives the calling thread and every pool worker one large workspace-arena
/// chunk through the public WorkspaceScope, so kernel temporaries never reach
/// the arena's overflow path. At HEAD that path leaks a chunk of twice the
/// largest one on every overflow, and which threads overflow depends on
/// scheduling: without this, peak RSS of one pass swung between 1.3 and
/// 10 GiB across seeds and throughput halved on the bad side.
void presize_arenas(std::size_t bytes);

/// The leading requests of the first trace, served once before measuring so
/// the thread pool, the arenas and the caches are warm.
[[nodiscard]] std::vector<tcb::Request> warm_up_trace(const Setup& setup);

/// Serves `trace` through the pipeline on a WallClock. With a probe the
/// scheduler and backend are wrapped in the timing decorators; without one
/// the pipeline sees the bare implementations.
[[nodiscard]] tcb::PipelineResult serve(const Setup& setup,
                                        const std::vector<tcb::Request>& trace,
                                        Probe* probe);

struct CheckResult {
  bool ok = true;
  std::size_t resampled = 0;   ///< requests re-served alone
  std::size_t mismatched = 0;  ///< of those, tokens differ from the serve
  std::vector<std::string> errors;
};

/// Correctness gate: accounting (arrived == completed + failed, every id
/// admitted exactly once) and, for engine workloads, a seeded sample of
/// completed requests re-served alone through Seq2SeqModel::infer with the
/// same options, whose tokens must be bitwise equal (paper §4.1).
[[nodiscard]] CheckResult check_pass(const Setup& setup,
                                     const std::vector<tcb::Request>& trace,
                                     const tcb::PipelineResult& result,
                                     const Probe& probe, std::uint64_t seed,
                                     std::size_t sample);

}  // namespace servebench
