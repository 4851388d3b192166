#include "serving/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "batching/factory.hpp"
#include "batching/slot_allocator.hpp"
#include "parallel/sync.hpp"
#include "parallel/task_group.hpp"
#include "parallel/thread_pool.hpp"
#include "serving/request_queue.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace tcb {
namespace {

/// Continuous mode: a batch accepts mid-decode splices only when its plan
/// laid out at least this fraction of the grid's token capacity
/// (rows * row_capacity). Splicing pins the batch's formation-time geometry;
/// a batch formed from a near-empty pending set would otherwise stay alive
/// indefinitely, trickling requests through its few slots while a
/// full-width re-formation waits. Under-filled batches instead drain and
/// retire so the worker can form a fresh grid. 0.6 won the bench sweep
/// (bench/continuous_batching.cpp) over 0.25/0.4/0.8 across arrival rates
/// and length distributions.
constexpr double kSpliceMinFill = 0.6;

/// Continuous mode: drain a live batch once this fraction of the pending set
/// no longer fits its widest slot span. A spliced batch keeps its
/// formation-time geometry forever; when the arrival mix drifts (e.g. a
/// bimodal workload whose long mode exceeds the frozen slot length),
/// splicing would serve only the short tail while the misfits expire —
/// draining lets the worker re-form with geometry matched to what is
/// actually waiting. The threshold is deliberately high: splicing drains
/// short requests first, so the pending set is survivor-biased toward
/// misfits even when the geometry is healthy; 0.75 kept every
/// catastrophic-mismatch case (bimodal long mode vs a short frozen slot
/// length) at run-to-completion parity without sacrificing the saturation
/// wins (bench sweep).
constexpr double kSpliceMisfitDrain = 0.75;
/// The misfit drain is evaluated only against a pending set at least this
/// large, so a lone early misfit cannot kill a healthy batch.
constexpr std::size_t kMisfitMinPending = 8;

/// A worker with nothing left to do: its next event never comes.
constexpr double kIdleForever = std::numeric_limits<double>::infinity();

/// Collection point for batch executions finishing on pool workers (stage 5
/// -> stage 6 hand-off). The coordinator takes everything once after the
/// TaskGroup joined, so push() contention is the only synchronized section.
class ExecutionLedger {
 public:
  void push(BatchExecution exec, double exec_seconds) TCB_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    executions_.push_back(std::move(exec));
    execute_seconds_ += exec_seconds;
  }

  /// Coordinator-only, after every in-flight task joined.
  [[nodiscard]] std::vector<BatchExecution> take(double* execute_seconds)
      TCB_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    *execute_seconds += execute_seconds_;
    execute_seconds_ = 0.0;
    return std::exchange(executions_, {});
  }

 private:
  Mutex mutex_ TCB_GUARDS(executions_, execute_seconds_)
      TCB_ACQUIRED_AFTER(lock_order::execution);
  std::vector<BatchExecution> executions_ TCB_GUARDED_BY(mutex_);
  double execute_seconds_ TCB_GUARDED_BY(mutex_) = 0.0;
};

/// Restores the canonical (arrival, id) pending order. Scheduler decisions
/// must be a function of the request *set*, not of the admission
/// interleaving or of a scheduler's survivor order.
void sort_canonical(std::vector<Request>& pending) {
  std::sort(pending.begin(), pending.end(),
            [](const Request& a, const Request& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });
}

/// Stage 1: feeds the trace, in arrival order, through the bounded
/// admission queue into the working pending set. The driver is
/// single-threaded (arrivals come from the trace), so a full queue drains
/// inline; a concurrent ingest frontend would block in push() instead.
class Admission {
 public:
  Admission(const std::vector<Request>& trace, std::size_t capacity,
            Index row_capacity, const Clock& clock)
      : trace_(trace), queue_(capacity), row_capacity_(row_capacity),
        clock_(clock) {}

  /// Pulls every arrival up to `now` through the queue into `pending`,
  /// restores canonical order, and fails what expired in the queue or can
  /// never fit a row.
  void admit_until(double now, std::vector<Request>& pending,
                   ServingReport& report) {
    const double admission_t0 = clock_.now();
    while (next_ < trace_.size() && trace_[next_].arrival <= now) {
      if (!queue_.try_push(trace_[next_])) {
        // Bounded-queue backpressure: the arrival waits at the edge until a
        // drain frees the queue.
        ++report.backpressure_events;
        drain(pending);
        TCB_CHECK(queue_.try_push(trace_[next_]),
                  "ServingPipeline: admission queue full after drain");
      }
      ++next_;
    }
    report.admission_queue_depth.add(static_cast<double>(queue_.size()));
    drain(pending);
    report.failed += evict_unschedulable(now, row_capacity_, pending).size();
    report.admission_seconds += clock_.now() - admission_t0;
  }

  /// True once every arrival has been admitted.
  [[nodiscard]] bool exhausted() const noexcept {
    return next_ >= trace_.size();
  }
  /// Arrival time of the next request not yet admitted; !exhausted().
  [[nodiscard]] double next_arrival() const { return trace_[next_].arrival; }

  /// Stops admitting; returns how many arrivals will never be admitted.
  std::size_t close() noexcept {
    return trace_.size() - std::exchange(next_, trace_.size());
  }

 private:
  /// Moves everything queued into `pending`. drain_by_deadline hands the
  /// set over earliest-deadline-first (the shape DAS's N^D_t scan wants);
  /// the re-sort makes the pipeline's pending order identical to the
  /// pre-pipeline loops' arrival-order append.
  void drain(std::vector<Request>& pending) {
    std::vector<Request> drained = queue_.drain_by_deadline();
    if (drained.empty()) return;
    for (auto& req : drained) pending.push_back(std::move(req));
    sort_canonical(pending);
  }

  const std::vector<Request>& trace_;
  RequestQueue queue_;
  std::size_t next_ = 0;
  Index row_capacity_;
  const Clock& clock_;
};

/// One batch mid-decode on a worker (continuous mode): its stepped
/// execution, the slot grid tracking which spans are live, and running
/// per-batch accounting.
struct LiveBatch {
  std::unique_ptr<SteppedExecution> exec;
  std::unique_ptr<SlotAllocator> slots;
  double seconds = 0.0;       ///< accumulated simulated batch time
  std::size_t requests = 0;   ///< placed at formation + spliced
  /// Whether the plan filled enough of the grid to be worth keeping alive
  /// via splices (kSpliceMinFill); under-filled batches drain and retire.
  bool splice_eligible = false;
};

/// Per admitted request: stamps its response exactly once in stage 6, and
/// double-checks the backend never invents request ids.
struct ServiceTimes {
  double arrival = 0.0;
  double scheduled_at = 0.0;
  double completed_at = 0.0;
};

}  // namespace

std::string ServingReport::summary() const {
  std::string out = scheduler + "-" + scheme;
  out += " arrived=" + std::to_string(arrived);
  out += " completed=" + std::to_string(completed);
  out += " failed=" + std::to_string(failed);
  out += " utility=" + format_number(total_utility);
  out += " throughput=" + format_number(throughput) + "/s";
  out += " batches=" + std::to_string(batches);
  out += " stage_seconds[admission=" + format_number(admission_seconds) +
         " scheduler=" + format_number(scheduler_seconds) +
         " batching=" + format_number(batching_seconds) +
         " execute=" + format_number(execute_seconds) + "]";
  if (worker_busy_seconds.size() > 1) {
    out += " worker_busy=[";
    for (std::size_t w = 0; w < worker_busy_seconds.size(); ++w) {
      if (w != 0) out += " ";
      out += format_number(worker_busy_seconds[w]);
    }
    out += "]";
  }
  if (backpressure_events != 0)
    out += " backpressure=" + std::to_string(backpressure_events);
  if (spliced_requests != 0 || slot_releases != 0)
    out += " spliced=" + std::to_string(spliced_requests) +
           " releases=" + std::to_string(slot_releases);
  return out;
}

void PipelineConfig::validate() const {
  if (scheme == Scheme::kConcatSlotted && fixed_slot_len < 0)
    throw std::invalid_argument("PipelineConfig: negative fixed_slot_len");
  if (workers == 0)
    throw std::invalid_argument("PipelineConfig: need >= 1 worker");
  if (admission_capacity == 0)
    throw std::invalid_argument("PipelineConfig: need admission capacity >= 1");
}

ServingPipeline::ServingPipeline(const Scheduler& scheduler,
                                 const ExecutionBackend& backend,
                                 const Clock& clock, PipelineConfig cfg)
    : scheduler_(scheduler), backend_(backend), clock_(clock), cfg_(cfg) {
  cfg_.validate();
}

PipelineResult ServingPipeline::run(const std::vector<Request>& trace) const {
  backend_.validate_trace(trace);

  const SchedulerConfig& sched_cfg = scheduler_.config();
  const double grid_tokens =
      static_cast<double>(sched_cfg.batch_rows * sched_cfg.row_capacity);
  PipelineResult result;
  ServingReport& report = result.report;
  report.scheduler = scheduler_.name();
  report.scheme = scheme_name(cfg_.scheme);
  report.arrived = trace.size();
  report.worker_busy_seconds.assign(cfg_.workers, 0.0);

  double trace_end = 0.0;
  for (const auto& req : trace) trace_end = std::max(trace_end, req.arrival);

  Admission admission(trace, cfg_.admission_capacity, sched_cfg.row_capacity,
                      clock_);

  // Stage 5/6 state for run-to-completion offload. Order matters: the
  // ledger outlives the TaskGroup, so every in-flight execution joins before
  // the ledger can be destroyed.
  ExecutionLedger ledger;
  TaskGroup inflight;
  const bool offload = !cfg_.continuous && backend_.offload() &&
                       cfg_.workers > 1 &&
                       ThreadPool::global().worker_count() > 0;

  // A worker's entry is the simulated time of its next event: the end of its
  // current batch (run-to-completion) or decode iteration (continuous), the
  // moment it can form a batch when idle, kIdleForever when it has nothing
  // left to do.
  std::vector<double> worker_free(cfg_.workers, 0.0);
  std::vector<LiveBatch> live(cfg_.workers);  ///< continuous mode only
  std::vector<Request> pending;  ///< drained, unscheduled; (arrival, id) order
  std::unordered_map<RequestId, ServiceTimes> service_times;
  std::vector<BatchExecution> executions;
  /// No further batch forms or splices: the trace drained, or the
  /// max_batches valve fired. Live batches still step to done.
  bool closed = false;

  // A request is accounted (utility, completed, service start) the moment it
  // enters a batch — at formation or at splice; complete() stamps its
  // completion time once its final token is out.
  const auto account_admitted = [&](const Request& req, double at) {
    report.total_utility += req.utility();
    ++report.completed;
    service_times.emplace(req.id, ServiceTimes{req.arrival, at, 0.0});
  };
  const auto complete = [&](RequestId id, double at) {
    ServiceTimes& times = service_times.at(id);
    times.completed_at = at;
    report.latency.add(at - times.arrival);
  };
  // Charges `seconds` of simulated busy time to `worker`, whose next event
  // is then at `until`.
  const auto charge = [&](std::size_t worker, double seconds, double until) {
    report.busy_seconds += seconds;
    report.worker_busy_seconds[worker] += seconds;
    worker_free[worker] = until;
    report.makespan = std::max(report.makespan, until);
  };

  while (true) {
    // The earliest event is processed next, with deterministic first-index
    // tie-breaking.
    const auto idle_it =
        std::min_element(worker_free.begin(), worker_free.end());
    const std::size_t worker =
        static_cast<std::size_t>(idle_it - worker_free.begin());
    const double now = *idle_it;
    if (now == kIdleForever) break;  // every worker is out of work
    LiveBatch& batch = live[worker];

    if (batch.exec != nullptr) {
      // ---- Step event: the worker's live batch finished an iteration ----
      if (batch.exec->done()) {
        executions.push_back(batch.exec->finish());
        report.batch_seconds.add(batch.seconds);
        report.batch_requests.add(static_cast<double>(batch.requests));
        batch = LiveBatch{};  // idle again at `now`; forms next batch
        continue;
      }
      const double exec_t0 = clock_.now();
      const SteppedExecution::StepResult step = batch.exec->step();
      report.execute_seconds += clock_.now() - exec_t0;
      const double step_end = now + step.seconds;
      for (const RequestId id : step.finished) complete(id, step_end);
      for (const SlotRelease& rel : step.released) {
        batch.slots->release(rel.row, rel.slot);
        ++report.slot_releases;
      }

      // ---- Mid-batch splicing (DESIGN.md §15): re-run DAS over the vacant
      // spans and admit what fits. The next iteration starts once every
      // splice's immediate price is paid.
      double ready = step_end;
      const std::vector<SlotSpan> vacant = batch.slots->vacant();
      if (!closed && batch.splice_eligible && !vacant.empty()) {
        admission.admit_until(step_end, pending, report);
        // Admission post-condition (evict_unschedulable's sanitizer),
        // re-asserted on the splice path before any batch-geometry
        // arithmetic consumes the surviving requests.
        for (const Request& req : pending)
          TCB_DCHECK(req.length >= 1 &&
                         req.length <= sched_cfg.row_capacity &&
                         req.deadline >= step_end,
                     "ServingPipeline: unvalidated request after admission");
        // Geometry-mismatch drain: when most of what is waiting cannot fit
        // this batch's widest span, stop splicing and let it retire so the
        // next formation re-adapts the slot geometry to the arrivals.
        if (pending.size() >= kMisfitMinPending) {
          const Index widest = batch.slots->max_span_width();
          std::size_t misfits = 0;
          for (const auto& req : pending)
            if (req.length > widest) ++misfits;
          if (static_cast<double>(misfits) >=
              kSpliceMisfitDrain * static_cast<double>(pending.size()))
            batch.splice_eligible = false;
        }
        if (batch.splice_eligible && !pending.empty()) {
          std::vector<Index> widths;
          widths.reserve(vacant.size());
          for (const auto& span : vacant) widths.push_back(span.width);
          const double select_t0 = clock_.now();
          std::vector<std::vector<Request>> picks =
              scheduler_.select_for_slots(step_end, widths, pending);
          report.scheduler_seconds += clock_.now() - select_t0;
          sort_canonical(pending);  // select_for_slots leaves it unordered
          for (std::size_t s = 0; s < picks.size(); ++s) {
            if (picks[s].empty()) continue;
            const SlotSpan& span = vacant[s];
            TCB_CHECK(batch.slots->acquire(span.row, span.slot),
                      "ServingPipeline: spliced into an occupied slot");
            for (const auto& req : picks[s]) {
              account_admitted(req, step_end);
              ++report.spliced_requests;
              ++batch.requests;
            }
            const double splice_t0 = clock_.now();
            ready += batch.exec->splice(span.row, span.slot, span.begin,
                                        span.width, std::move(picks[s]));
            report.execute_seconds += clock_.now() - splice_t0;
          }
        }
      }
      report.slot_occupancy.add(batch.slots->occupied_fraction());
      const double delta = ready - now;
      batch.seconds += delta;
      charge(worker, delta, ready);
      continue;
    }

    // ---- Idle worker: form a new batch ----------------------------------
    if (closed) {
      *idle_it = kIdleForever;
      continue;
    }

    // ---- Stage 1: admission -------------------------------------------
    admission.admit_until(now, pending, report);
    if (pending.empty()) {
      if (admission.exhausted()) {
        closed = true;  // drained
        *idle_it = kIdleForever;
      } else {
        *idle_it = admission.next_arrival();  // idle until it arrives
      }
      continue;
    }
    report.queue_depth.add(static_cast<double>(pending.size()));

    // ---- Stage 2: scheduler selection ---------------------------------
    // Timed with the pipeline Clock (this is what Fig. 16 reports); the
    // reading never influences a decision.
    const double select_t0 = clock_.now();
    Selection sel = scheduler_.select(now, pending);
    report.scheduler_seconds += clock_.now() - select_t0;

    // ---- Stage 3: batch formation -------------------------------------
    const double batch_t0 = clock_.now();
    const Index slot_len =
        sel.slot_len > 0 ? sel.slot_len : cfg_.fixed_slot_len;
    BatchBuildResult built = build_with_scheme(
        cfg_.scheme, std::move(sel.ordered), Row{sched_cfg.batch_rows},
        Col{sched_cfg.row_capacity}, slot_len);
    report.batching_seconds += clock_.now() - batch_t0;

    if (built.plan.empty()) {
      // The selection could not be placed at all (e.g. every candidate is
      // longer than the slot). Avoid a zero-progress spin: wait for the
      // next arrival if any, otherwise fail what is left.
      if (!admission.exhausted()) {
        *idle_it = std::max(now, admission.next_arrival());
        continue;
      }
      report.failed += pending.size();
      pending.clear();
      closed = true;
      *idle_it = kIdleForever;
      continue;
    }

    std::unordered_set<RequestId> served;
    for (const auto id : built.plan.request_ids()) served.insert(id);
    BatchWork work;
    work.plan = std::move(built.plan);
    work.requests.reserve(served.size());
    double used_tokens = 0.0;
    for (const auto& req : pending) {
      if (!served.contains(req.id)) continue;
      account_admitted(req, now);
      used_tokens += static_cast<double>(req.length);
      work.requests.push_back(req);
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return served.contains(r.id);
                                 }),
                  pending.end());
    ++report.batches;
    report.batch_occupancy.add(used_tokens / grid_tokens);

    if (cfg_.continuous) {
      // ---- Stages 4-5, continuous: the batch goes live and is stepped one
      // decoder iteration per event; completions are stamped per iteration.
      const double exec_t0 = clock_.now();
      std::unique_ptr<SteppedExecution> exec = backend_.begin_stepped(work);
      if (exec == nullptr)
        throw std::logic_error(
            "ServingPipeline: backend cannot step batches (continuous mode "
            "needs begin_stepped support)");
      report.execute_seconds += clock_.now() - exec_t0;
      const double prologue = exec->prologue_seconds();
      if (!(prologue > 0.0))
        throw std::logic_error("ServingPipeline: non-positive batch prologue");

      double plan_tokens = 0.0;
      for (const auto& row : work.plan.rows)
        plan_tokens += static_cast<double>(row.width);
      batch.slots = std::make_unique<SlotAllocator>(work.plan);
      batch.exec = std::move(exec);
      batch.seconds = prologue;
      batch.requests = work.requests.size();
      batch.splice_eligible = plan_tokens >= kSpliceMinFill * grid_tokens;
      charge(worker, prologue, now + prologue);
    } else {
      // ---- Stage 4, run-to-completion: one price for the whole batch. Its
      // simulated times are fully determined here, whether or not execution
      // is deferred to a pool worker.
      const double batch_time = backend_.batch_seconds(work.plan);
      if (!(batch_time > 0.0))
        throw std::logic_error("ServingPipeline: non-positive batch time");
      const double completion = now + batch_time;
      for (const auto& req : work.requests) complete(req.id, completion);
      report.batch_seconds.add(batch_time);
      report.batch_requests.add(static_cast<double>(work.requests.size()));
      charge(worker, batch_time, completion);

      // ---- Stage 5: execution -------------------------------------------
      if (offload) {
        // The worker owns its BatchWork; results meet the coordinator in
        // the ledger. shared_ptr because ThreadPool::submit needs a copyable
        // fn. The lambda escapes to a worker thread (submit is
        // TCB_ESCAPES), so the `this`/&ledger captures are only sound
        // because `inflight` joins every task before `ledger` — declared
        // above it — can be destroyed. spawn() spells that structure out;
        // tcb-lint's no-ref-capture-escape rule checks the declaration
        // order and the join on this exact shape.
        auto task = std::make_shared<BatchWork>(std::move(work));
        inflight.spawn(ThreadPool::global(), [this, task, &ledger] {
          const double exec_t0 = clock_.now();
          BatchExecution exec = backend_.execute(*task);
          ledger.push(std::move(exec), clock_.now() - exec_t0);
        });
      } else {
        const double exec_t0 = clock_.now();
        executions.push_back(backend_.execute(work));
        report.execute_seconds += clock_.now() - exec_t0;
      }
    }

    if (cfg_.max_batches != 0 && report.batches >= cfg_.max_batches) {
      // Safety valve: stop admitting; live batches still drain to done.
      report.failed += pending.size() + admission.close();
      pending.clear();
      closed = true;
    }
  }

  // ---- Stage 6: completion / accounting -------------------------------
  inflight.join();  // rethrows the first execution failure
  for (auto& exec : ledger.take(&report.execute_seconds))
    executions.push_back(std::move(exec));
  for (auto& exec : executions) {
    result.peak_kv_bytes = std::max(result.peak_kv_bytes, exec.peak_kv_bytes);
    result.early_freed_bytes += exec.early_freed_bytes;
    result.reclaimable_kv_bytes += exec.reclaimable_kv_bytes;
    for (auto& resp : exec.responses) {
      // at() throws on an id the pipeline never admitted.
      const ServiceTimes& times = service_times.at(resp.id);
      resp.scheduled_at = times.scheduled_at;
      resp.completed_at = times.completed_at;
      result.responses.push_back(std::move(resp));
    }
  }
  std::sort(result.responses.begin(), result.responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });

  const double horizon = std::max(report.makespan, trace_end);
  report.throughput =
      horizon > 0.0 ? static_cast<double>(report.completed) / horizon : 0.0;
  return result;
}

}  // namespace tcb
