// ServingPipeline — the one staged serving loop behind every serving path
// (paper Fig. 3; DESIGN.md §10). The stages:
//
//   1. admission  — arrivals enter a bounded RequestQueue (backpressure at
//                   the edge) and are drained into the pending set via
//                   drain_by_deadline;
//   2. selection  — the Scheduler picks the next utility-dominant set
//                   (DAS / Slotted-DAS / baselines);
//   3. formation  — the Scheme's batcher lays the selection out
//                   (batching/factory.hpp);
//   4. pricing    — the ExecutionBackend prices the plan, advancing
//                   simulated time deterministically: once per batch under
//                   run-to-completion, once per decoder iteration (plus
//                   splices) under continuous batching;
//   5. execution  — the backend produces the outputs: inline for the
//                   analytical backend, concurrently on the thread pool for
//                   the engine backend in multi-worker run-to-completion
//                   mode, stepped inline by the coordinator when continuous;
//   6. completion — utilities, latencies, per-worker busy time and the
//                   responses are accounted exactly once.
//
// run() is the one event loop for both modes; stages 1-3 and the accounting
// are shared, and only what a formed batch becomes (stages 4-5) depends on
// PipelineConfig::continuous. TcbSystem::serve / serve_classify / simulate
// and ServingSimulator are thin configurations of this class: pick a
// backend (engine vs analytical), a Clock (virtual vs wall, see clock.hpp)
// and a PipelineConfig.
//
// Determinism: simulated time comes only from backend prices, never the
// Clock (which measures overhead). The pending set is kept in canonical
// (arrival, id) order across admission drains, so scheduler decisions are a
// function of the request set alone — the pipeline reproduces the
// pre-refactor loops bit for bit (tests/serving/pipeline_equivalence_test).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "batching/batch_plan.hpp"
#include "sched/scheduler.hpp"
#include "serving/backend.hpp"
#include "serving/clock.hpp"
#include "util/stats.hpp"

namespace tcb {

struct ServingReport {
  std::string scheduler;
  std::string scheme;

  std::size_t arrived = 0;
  std::size_t completed = 0;        ///< scheduled by deadline and served
  std::size_t failed = 0;           ///< expired in queue or oversized
  double total_utility = 0.0;       ///< objective (9) of the paper
  double throughput = 0.0;          ///< completed responses / second
  double makespan = 0.0;            ///< time the last batch finished
  std::size_t batches = 0;
  double busy_seconds = 0.0;        ///< accelerator busy time (all workers)
  double scheduler_seconds = 0.0;   ///< wall time spent inside select()

  // Per-stage pipeline overhead (measured with the configured Clock; all
  // zero under VirtualClock).
  double admission_seconds = 0.0;   ///< queue admit + drain + evict
  double batching_seconds = 0.0;    ///< scheme layout (stage 3)
  double execute_seconds = 0.0;     ///< backend execute(), summed over batches

  /// Simulated busy time per worker slot; size = PipelineConfig::workers.
  std::vector<double> worker_busy_seconds;
  /// Admissions rejected by a full bounded queue (drained then retried).
  std::size_t backpressure_events = 0;

  // Continuous (iteration-level) batching only — zero in run-to-completion
  // mode (DESIGN.md §15).
  std::size_t spliced_requests = 0;  ///< admitted into live batches mid-decode
  std::size_t slot_releases = 0;     ///< slot spans vacated mid-batch

  Samples latency;                  ///< completion - arrival per request
  Samples batch_seconds;            ///< per-batch inference time
  Samples batch_occupancy;          ///< used tokens / (rows * L) per batch
  Samples batch_requests;           ///< requests per batch
  Samples queue_depth;              ///< pending count at each decision point
  Samples admission_queue_depth;    ///< bounded-queue depth before each drain
  /// Occupied-slot fraction across live batches, sampled once per decode
  /// step (continuous mode only).
  Samples slot_occupancy;

  [[nodiscard]] std::string summary() const;
};

struct PipelineConfig {
  Scheme scheme = Scheme::kConcatPure;
  /// Slotted scheme: used when the scheduler's Selection does not choose a
  /// slot length (<= 0 falls back to one slot per row).
  Index fixed_slot_len = 0;

  /// Number of accelerators sharing the pending queue; each idle worker
  /// pulls the next scheduler selection. With an offloading backend and
  /// workers > 1, execution runs concurrently on the thread pool.
  std::size_t workers = 1;

  /// Safety valve: stop after this many batches (0 = unlimited).
  std::size_t max_batches = 0;

  /// Bound of the admission queue (backpressure threshold, >= 1).
  std::size_t admission_capacity = 1024;

  /// Continuous (iteration-level) batching: batches execute one decoder
  /// iteration at a time through SteppedExecution; finished requests free
  /// their slots mid-batch and the scheduler splices waiting requests into
  /// the vacated spans between iterations (DESIGN.md §15). Requires a
  /// backend whose begin_stepped() returns non-null. The coordinator steps
  /// every live batch inline — multi-worker continuous runs are simulated
  /// concurrency, deterministic by construction. The two splice gates (a
  /// formation fill floor and a geometry-mismatch drain) are fixed
  /// constants in pipeline.cpp, tuned by bench/continuous_batching.cpp.
  bool continuous = false;

  /// Throws std::invalid_argument on a configuration no run can serve.
  void validate() const;
};

/// Everything one pipeline run produced. Analytical runs leave `responses`
/// empty (the backend executes nothing); engine runs return one Response
/// per completed request, sorted by id.
struct PipelineResult {
  ServingReport report;
  std::vector<Response> responses;
  std::size_t peak_kv_bytes = 0;    ///< max over batches
  std::size_t early_freed_bytes = 0;
  /// What an ideal per-request cleaner could have freed (see
  /// DecodeResult::reclaimable_kv_bytes); early_freed_bytes / this ratio
  /// measures how much of the reclaimable memory each scheme actually
  /// returned.
  std::size_t reclaimable_kv_bytes = 0;
};

class ServingPipeline {
 public:
  /// All referenced collaborators must outlive the pipeline.
  ServingPipeline(const Scheduler& scheduler, const ExecutionBackend& backend,
                  const Clock& clock, PipelineConfig cfg);

  /// Runs the whole trace to completion (every request served or expired).
  /// `trace` must be sorted by arrival. Throughput is normalized by
  /// max(makespan, trace duration).
  /// The earliest worker event (an idle worker forming a batch, or a live
  /// batch finishing an iteration) is processed next, with deterministic
  /// first-index tie-breaking.
  [[nodiscard]] PipelineResult run(const std::vector<Request>& trace) const;

 private:
  const Scheduler& scheduler_;
  const ExecutionBackend& backend_;
  const Clock& clock_;
  PipelineConfig cfg_;
};

}  // namespace tcb
