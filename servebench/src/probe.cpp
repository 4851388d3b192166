#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace servebench {
namespace {

/// Decode iterations an RTC batch ran: the longest track, counting the EOS
/// token the engine trims from a response that ended before its cap.
double rtc_iterations(const tcb::BatchWork& work,
                      const tcb::BatchExecution& exec, const Probe& probe) {
  std::unordered_map<RequestId, Index> src_len;
  for (const auto& req : work.requests) src_len.emplace(req.id, req.length);
  Index steps = 1;
  for (const auto& resp : exec.responses) {
    const Index cap = probe.cap_at_source_length
                          ? std::min(probe.max_decode_steps, src_len.at(resp.id))
                          : probe.max_decode_steps;
    const auto len = static_cast<Index>(resp.tokens.size());
    steps = std::max(steps, len >= cap ? len : len + 1);
  }
  return static_cast<double>(steps);
}

std::vector<RequestId> ids_of(const std::vector<tcb::Request>& reqs) {
  std::vector<RequestId> ids;
  ids.reserve(reqs.size());
  for (const auto& req : reqs) ids.push_back(req.id);
  return ids;
}

/// Wraps one stepped batch: times each call and, on the pipeline clock,
/// follows the batch so it can stamp each request's first-iteration end.
class TimedStepped final : public tcb::SteppedExecution {
 public:
  TimedStepped(std::unique_ptr<tcb::SteppedExecution> inner, Probe& probe,
               const tcb::BatchWork& work, double t_begin)
      : inner_(std::move(inner)),
        probe_(probe),
        t_begin_(t_begin),
        cursor_(probe_.last_select_now + inner_->prologue_seconds()) {
    for (const auto& req : work.requests) admit(req, t_begin_);
    admitted_ = work.requests.size();
  }

  [[nodiscard]] double prologue_seconds() const override {
    return inner_->prologue_seconds();
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

  [[nodiscard]] StepResult step() override {
    probe_.active_tracks.push_back(
        static_cast<double>(admitted_ - finished_));
    const double t0 = wall_now();
    StepResult res = inner_->step();
    const double t1 = wall_now();
    probe_.step_s.push_back(t1 - t0);
    if (probe_.spans != nullptr) probe_.spans->add("step", t0, t1);
    cursor_ += res.seconds;
    for (const auto& [arrival, admitted_wall] : awaiting_first_)
      probe_.ttft_s.push_back(probe_.from_admission ? t1 - admitted_wall
                                                    : cursor_ - arrival);
    awaiting_first_.clear();
    if (probe_.from_admission)
      for (const RequestId id : res.finished)
        probe_.admission_latency_s.push_back(t1 - admitted_wall_.at(id));
    finished_ += res.finished.size();
    return res;
  }

  [[nodiscard]] double splice(tcb::Row row, tcb::Slot slot, tcb::Col begin,
                              Index width,
                              std::vector<tcb::Request> reqs) override {
    std::vector<RequestId> ids = ids_of(reqs);
    const double t0 = wall_now();
    for (const auto& req : reqs) {
      admit(req, t0);
      probe_.placed[req.id] += 1;
      // Analytical batches emit no tokens; the model decodes as many as the
      // input length. Engine tokens are counted at finish().
      if (req.tokens.empty())
        probe_.generated_tokens += static_cast<double>(req.length);
    }
    admitted_ += reqs.size();
    const double price =
        inner_->splice(row, slot, begin, width, std::move(reqs));
    const double t1 = wall_now();
    probe_.splice_s.push_back(t1 - t0);
    cursor_ += price;
    std::vector<RequestId> decision = {-2, row.value(), slot.value()};
    decision.insert(decision.end(), ids.begin(), ids.end());
    if (probe_.spans != nullptr)
      probe_.spans->add("splice", t0, t1,
                        "\"requests\":[" + id_list(ids) + "]");
    probe_.decisions.push_back(std::move(decision));
    return price;
  }

  [[nodiscard]] tcb::BatchExecution finish() override {
    tcb::BatchExecution exec = inner_->finish();
    const double t1 = wall_now();
    for (const auto& resp : exec.responses)
      probe_.generated_tokens += static_cast<double>(resp.tokens.size());
    if (probe_.spans != nullptr)
      probe_.spans->add("batch", t_begin_, t1,
                        "\"requests\":[" + id_list(ids_) + "]");
    return exec;
  }

 private:
  std::unique_ptr<tcb::SteppedExecution> inner_;
  Probe& probe_;
  double t_begin_;
  double cursor_;  ///< pipeline clock at the end of the last priced event
  void admit(const tcb::Request& req, double wall) {
    awaiting_first_.emplace_back(req.arrival, wall);
    admitted_wall_.emplace(req.id, wall);
    ids_.push_back(req.id);
  }

  /// (arrival, admission wall time) of tracks that have not stepped yet.
  std::vector<std::pair<double, double>> awaiting_first_;
  std::unordered_map<RequestId, double> admitted_wall_;
  std::vector<RequestId> ids_;
  std::size_t admitted_ = 0;
  std::size_t finished_ = 0;
};

void record_formation(Probe& probe, const tcb::BatchWork& work) {
  std::vector<RequestId> decision = {-1, work.plan.slot_len};
  for (const auto id : work.plan.request_ids()) {
    decision.push_back(id);
    probe.placed[id] += 1;
  }
  probe.decisions.push_back(std::move(decision));
  if (probe.capture) probe.captured.push_back(work);
}

}  // namespace

void SpanRecorder::add(std::string name, double t0, double t1,
                       std::string args) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{std::move(name), t0, t1, std::move(args)});
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  double epoch = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const auto& s : spans_) epoch = std::min(epoch, s.t0);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  (s.t0 - epoch) * 1e6, (s.t1 - s.t0) * 1e6);
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        << buf << ",\"args\":{" << s.args << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

tcb::Selection TimedScheduler::select(
    double now, const std::vector<tcb::Request>& pending) const {
  const double t0 = wall_now();
  tcb::Selection sel = inner_.select(now, pending);
  const double t1 = wall_now();
  probe_.select_s.push_back(t1 - t0);
  probe_.last_select_now = now;
  if (probe_.spans != nullptr)
    probe_.spans->add("select", t0, t1,
                      "\"pending\":" + std::to_string(pending.size()));
  return sel;
}

std::vector<std::vector<tcb::Request>> TimedScheduler::select_for_slots(
    double now, const std::vector<Index>& slot_widths,
    std::vector<tcb::Request>& pending) const {
  const std::size_t before = pending.size();
  const double t0 = wall_now();
  auto picks = inner_.select_for_slots(now, slot_widths, pending);
  const double t1 = wall_now();
  probe_.slots_s.push_back(t1 - t0);
  if (probe_.spans != nullptr)
    probe_.spans->add("select_for_slots", t0, t1,
                      "\"pending\":" + std::to_string(before));
  return picks;
}

tcb::BatchExecution TimedBackend::execute(const tcb::BatchWork& work) const {
  record_formation(probe_, work);
  const double t0 = wall_now();
  tcb::BatchExecution exec = inner_.execute(work);
  const double t1 = wall_now();
  const double seconds = t1 - t0;
  probe_.execute_s.push_back(seconds);
  if (exec.responses.empty()) {
    // Analytical backend: nothing executes; the model decodes as many
    // tokens as each request's input length.
    for (const auto& req : work.requests)
      probe_.generated_tokens += static_cast<double>(req.length);
  } else {
    probe_.step_s.push_back(seconds / rtc_iterations(work, exec, probe_));
    for (const auto& resp : exec.responses)
      probe_.generated_tokens += static_cast<double>(resp.tokens.size());
  }
  // Run-to-completion returns every token at batch end: first token and
  // final token reach the caller together.
  for (const auto& req : work.requests) {
    probe_.rtc_latency_s.push_back(t1 - probe_.run_t0 - req.arrival);
    probe_.ttft_s.push_back(t1 - probe_.run_t0 - req.arrival);
  }
  if (probe_.spans != nullptr) {
    const std::string args =
        "\"requests\":[" + id_list(ids_of(work.requests)) + "]";
    probe_.spans->add("batch", t0, t1, args);
    probe_.spans->add("execute", t0, t1);
  }
  return exec;
}

std::unique_ptr<tcb::SteppedExecution> TimedBackend::begin_stepped(
    const tcb::BatchWork& work) const {
  record_formation(probe_, work);
  const double t0 = wall_now();
  std::unique_ptr<tcb::SteppedExecution> inner = inner_.begin_stepped(work);
  const double t1 = wall_now();
  if (inner == nullptr) return nullptr;
  probe_.prologue_s.push_back(t1 - t0);
  if (probe_.spans != nullptr) probe_.spans->add("prologue", t0, t1);
  const bool analytical = work.requests.empty() ||
                          work.requests.front().tokens.empty();
  if (analytical)
    for (const auto& req : work.requests)
      probe_.generated_tokens += static_cast<double>(req.length);
  return std::make_unique<TimedStepped>(std::move(inner), probe_, work, t0);
}

double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  const std::string key = field + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0)
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MiB
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM");
}

std::string id_list(const std::vector<RequestId>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace servebench
