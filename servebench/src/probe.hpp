// Timing decorators around the serving stack's public interfaces.
//
// The benchmark measures the engine from outside: it never edits src/. The
// pipeline talks to a Scheduler and an ExecutionBackend; the decorators here
// forward every call to the real implementation and record, into one Probe,
// how long each call took on the wall clock. With spans enabled they also
// record a trace-event span per call. Prices come from the wrapped backend,
// so the schedule is bit-identical to an undecorated run (checked by
// tests/transparency_test.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.hpp"
#include "serving/backend.hpp"

namespace servebench {

using tcb::Index;
using tcb::RequestId;

/// Monotonic wall time in seconds since an arbitrary epoch.
[[nodiscard]] inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory trace-event recorder; written once, at the end of a pass. Keeps
/// the first kMaxSpans spans and counts the rest, so a long analytical run
/// cannot produce a file of hundreds of megabytes.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSpans = 100000;

  /// `args` is a JSON object body (without braces), or empty.
  void add(std::string name, double t0, double t1, std::string args = {});
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  /// Chrome trace-event JSON (opens in chrome://tracing or Perfetto).
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0;
    double t1 = 0;
    std::string args;
  };
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Everything the decorators observed during one pipeline run. All times are
/// seconds.
struct Probe {
  // ---- configuration ------------------------------------------------------
  bool capture = false;            ///< keep formed batches for the replay
  /// Time first token and latency on the wall clock from each request's
  /// admission into a batch, not from its arrival on the pipeline clock.
  bool from_admission = false;
  SpanRecorder* spans = nullptr;    ///< null: tracing off
  Index max_decode_steps = 32;      ///< for RTC iteration counts
  bool cap_at_source_length = true;
  double run_t0 = 0;                ///< wall time the serve call started

  // ---- sched --------------------------------------------------------------
  std::vector<double> select_s;     ///< per Scheduler::select call
  std::vector<double> slots_s;      ///< per select_for_slots call
  double last_select_now = 0;       ///< pipeline clock of the last select

  // ---- batches and engine -------------------------------------------------
  std::vector<double> execute_s;    ///< RTC: per execute() call
  std::vector<double> step_s;       ///< per decode iteration (RTC: mean/batch)
  std::vector<double> prologue_s;   ///< begin_stepped: pack + encode
  std::vector<double> splice_s;
  std::vector<double> active_tracks;  ///< per decode iteration
  /// Arrival -> end of the first iteration after admission, on the pipeline
  /// clock (RTC: wall since run start at batch end, when tokens return;
  /// from_admission: admission -> end of that iteration, wall clock).
  std::vector<double> ttft_s;
  /// RTC only: arrival -> batch end on the wall clock since run start.
  std::vector<double> rtc_latency_s;
  /// from_admission only: admission -> final token, wall clock.
  std::vector<double> admission_latency_s;
  double generated_tokens = 0;      ///< engine: emitted; analytical: modeled
  std::vector<tcb::BatchWork> captured;
  /// Formation and splice decisions in order — equal logs mean identical
  /// batches.
  std::vector<std::vector<RequestId>> decisions;
  std::unordered_map<RequestId, int> placed;  ///< times each id was admitted
};

class TimedScheduler final : public tcb::Scheduler {
 public:
  TimedScheduler(const tcb::Scheduler& inner, Probe& probe)
      : Scheduler(inner.config()), inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] tcb::Selection select(
      double now, const std::vector<tcb::Request>& pending) const override;
  [[nodiscard]] std::vector<std::vector<tcb::Request>> select_for_slots(
      double now, const std::vector<Index>& slot_widths,
      std::vector<tcb::Request>& pending) const override;

 private:
  const tcb::Scheduler& inner_;
  Probe& probe_;
};

class TimedBackend final : public tcb::ExecutionBackend {
 public:
  TimedBackend(const tcb::ExecutionBackend& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double batch_seconds(
      const tcb::BatchPlan& plan) const override {
    return inner_.batch_seconds(plan);
  }
  [[nodiscard]] tcb::BatchExecution execute(
      const tcb::BatchWork& work) const override;
  [[nodiscard]] bool offload() const noexcept override {
    return inner_.offload();
  }
  [[nodiscard]] std::unique_ptr<tcb::SteppedExecution> begin_stepped(
      const tcb::BatchWork& work) const override;
  void validate_trace(const std::vector<tcb::Request>& trace) const override {
    inner_.validate_trace(trace);
  }

 private:
  const tcb::ExecutionBackend& inner_;
  Probe& probe_;
};

/// A size field of /proc/self/status ("VmRSS", "VmHWM"), MiB.
[[nodiscard]] double status_mb(const std::string& field);
/// Lowers this process's VmHWM to its current RSS (Linux >= 4.0), so a
/// later VmHWM is the peak from here on.
void reset_peak_rss();

/// `ids` as a JSON array body, e.g. `1,5,9`.
[[nodiscard]] std::string id_list(const std::vector<RequestId>& ids);

}  // namespace servebench
