// Decorator transparency: the timing decorators must not change what the
// pipeline decides.
//
//   * paper_sim: utility, goodput and failed share of a decorated run (spans
//     off and on) are bit-identical to an undecorated run;
//   * offline_rtc and stream_cont: a traced and an untraced decorated run
//     form identical batches and splices and return identical tokens, and
//     both match the undecorated run's accounting.
//
// The workloads are shrunk so the test runs in seconds. Exit code 0 = pass.
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using servebench::Probe;
using servebench::WorkloadSpec;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Outcome {
  tcb::PipelineResult result;
  Probe probe;
};

Outcome decorated(const servebench::Setup& setup, bool traced) {
  Outcome out;
  servebench::SpanRecorder spans;
  if (traced) {
    out.probe.spans = &spans;
    out.probe.capture = true;
  }
  out.result = servebench::serve(setup, setup.episodes.front(), &out.probe);
  out.probe.spans = nullptr;
  return out;
}

double failed_share(const tcb::ServingReport& r) {
  return static_cast<double>(r.failed) / static_cast<double>(r.arrived);
}

void check_paper_sim() {
  WorkloadSpec spec = servebench::find_workload("paper_sim");
  spec.duration = 20;
  spec.episodes = 1;
  const servebench::Setup setup = servebench::make_setup(spec, 3);
  const tcb::ServingReport bare =
      servebench::serve(setup, setup.episodes.front(), nullptr).report;
  for (const bool traced : {false, true}) {
    const Outcome d = decorated(setup, traced);
    const tcb::ServingReport& r = d.result.report;
    const std::string tag = traced ? " (traced)" : " (untraced)";
    expect(same_bits(r.total_utility, bare.total_utility),
           "paper_sim utility bit-identical" + tag);
    expect(same_bits(r.throughput, bare.throughput),
           "paper_sim goodput bit-identical" + tag);
    expect(same_bits(failed_share(r), failed_share(bare)),
           "paper_sim failed share bit-identical" + tag);
  }
}

void check_engine(const std::string& name) {
  WorkloadSpec spec = servebench::find_workload(name);
  spec.burst_requests = 160;
  spec.duration = 0.1;
  const servebench::Setup setup = servebench::make_setup(spec, 5);
  const tcb::PipelineResult bare =
      servebench::serve(setup, setup.episodes.front(), nullptr);
  const Outcome untraced = decorated(setup, false);
  const Outcome traced = decorated(setup, true);

  expect(!untraced.probe.decisions.empty() &&
             untraced.probe.decisions == traced.probe.decisions,
         name + " forms identical batches traced and untraced");
  bool same_tokens =
      untraced.result.responses.size() == traced.result.responses.size() &&
      bare.responses.size() == traced.result.responses.size();
  for (std::size_t i = 0; same_tokens && i < bare.responses.size(); ++i)
    same_tokens = bare.responses[i].id == traced.result.responses[i].id &&
                  bare.responses[i].tokens == traced.result.responses[i].tokens &&
                  untraced.result.responses[i].tokens ==
                      traced.result.responses[i].tokens;
  expect(same_tokens, name + " returns identical tokens with decorators");
  const tcb::ServingReport& a = bare.report;
  const tcb::ServingReport& b = traced.result.report;
  expect(a.batches == b.batches && a.completed == b.completed &&
             a.failed == b.failed && a.spliced_requests == b.spliced_requests &&
             same_bits(a.total_utility, b.total_utility),
         name + " accounting matches the undecorated run");
}

}  // namespace

int main() {
  check_paper_sim();
  check_engine("offline_rtc");
  check_engine("stream_cont");
  std::printf("%s\n", failures == 0 ? "all transparency checks passed"
                                    : "transparency checks FAILED");
  return failures == 0 ? 0 : 1;
}
