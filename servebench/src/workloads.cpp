#include "workloads.hpp"

#include <algorithm>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "batching/factory.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/factory.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace servebench {
namespace {

constexpr Index kRowCapacity = 100;  // L
constexpr double kNoDeadline = 1e9;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec offline;
    offline.name = "offline_rtc";
    offline.why =
        "peak offline throughput of the default system: a burst all pending "
        "at t=0, run to completion; decode is most of the work and every run "
        "does identical work";
    offline.burst = true;
    offline.rows = 8;
    offline.burst_requests = 1700;
    v.push_back(offline);

    WorkloadSpec stream;
    stream.name = "stream_cont";
    stream.why =
        "the only steady regime that exercises the engine's splice path (a "
        "mini-encode into a live batch beside the decode reads), priced by "
        "the analytical clock";
    stream.continuous = true;
    stream.from_admission = true;
    stream.rows = 8;
    stream.rate = 2000;
    stream.duration = 0.1;
    stream.episodes = 8;
    v.push_back(stream);

    WorkloadSpec paper;
    paper.name = "paper_sim";
    paper.why =
        "paper-scale analytical serving at 400 req/s: the engine does nothing "
        "and sched/serving do all the work; pins the paper's objective";
    paper.analytical = true;
    paper.continuous = true;
    paper.rows = 64;
    paper.rate = 400;
    paper.duration = 10;
    paper.episodes = 120;
    v.push_back(paper);
    return v;
  }();
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const auto& spec : workloads())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  Setup s;
  s.spec = &spec;
  s.opts.mode = tcb::AttentionMode::kSlotted;
  s.opts.max_decode_steps = 32;
  s.opts.cap_decode_at_source_length = true;
  s.opts.early_memory_cleaning = true;

  const tcb::HardwareProfile hw = tcb::HardwareProfile::v100_like();
  if (spec.analytical) {
    s.cost = std::make_unique<tcb::AnalyticalCostModel>(
        tcb::ModelConfig::paper_scale(), hw);
    s.backend = std::make_unique<tcb::AnalyticalBackend>(*s.cost);
  } else {
    const tcb::ModelConfig model_cfg{};
    s.model = std::make_shared<const tcb::Seq2SeqModel>(model_cfg);
    s.cost = std::make_unique<tcb::AnalyticalCostModel>(model_cfg, hw);
    s.backend =
        std::make_unique<tcb::EngineBackend>(s.model, *s.cost, s.opts);
  }

  tcb::SchedulerConfig sc;
  sc.batch_rows = spec.rows;
  sc.row_capacity = kRowCapacity;
  s.scheduler = tcb::make_scheduler("slotted-das", sc);

  s.pipe.scheme = tcb::Scheme::kConcatSlotted;
  s.pipe.workers = 1;
  s.pipe.continuous = spec.continuous;

  const tcb::Rng seeds(seed);
  for (std::size_t e = 0; e < spec.episodes; ++e) {
    tcb::WorkloadConfig wc;  // 3-100 tokens, mean 20, variance 20 (§6.2)
    wc.seed = spec.episodes == 1 ? seed : seeds.fork(e).next_u64();
    wc.with_tokens = !spec.analytical;
    std::vector<tcb::Request> trace;
    if (spec.burst) {
      // Over-generate, keep exactly burst_requests, then make them all
      // pending at t = 0 with no binding deadline.
      wc.rate = 1000;
      wc.duration = 1.5 * static_cast<double>(spec.burst_requests) / wc.rate;
      trace = tcb::generate_trace(wc);
      if (trace.size() < spec.burst_requests)
        throw std::logic_error("burst trace too short");
      trace.resize(spec.burst_requests);
      for (auto& req : trace) {
        req.arrival = 0.0;
        req.deadline = kNoDeadline;
      }
    } else {
      wc.rate = spec.rate;
      wc.duration = spec.duration;
      trace = tcb::generate_trace(wc);
    }
    s.episodes.push_back(std::move(trace));
  }
  return s;
}

void presize_arenas(std::size_t bytes) {
  const auto touch = [bytes] {
    tcb::WorkspaceScope scope;
    (void)scope.alloc(bytes / sizeof(float));
  };
  touch();
  // One task per worker, each held until all have started, so every worker
  // thread runs exactly one.
  tcb::ThreadPool& pool = tcb::ThreadPool::global();
  std::latch all_started(static_cast<std::ptrdiff_t>(pool.worker_count()));
  std::vector<std::future<void>> done;
  for (std::size_t w = 0; w < pool.worker_count(); ++w)
    done.push_back(pool.submit([&] {
      all_started.arrive_and_wait();
      touch();
    }));
  for (auto& f : done) f.get();
}

std::vector<tcb::Request> warm_up_trace(const Setup& setup) {
  const std::vector<tcb::Request>& first = setup.episodes.front();
  const std::size_t n = std::min<std::size_t>(
      first.size(), static_cast<std::size_t>(setup.spec->rows) * 8);
  return {first.begin(), first.begin() + static_cast<std::ptrdiff_t>(n)};
}

tcb::PipelineResult serve(const Setup& setup,
                          const std::vector<tcb::Request>& trace,
                          Probe* probe) {
  const tcb::WallClock clock;
  if (probe == nullptr) {
    const tcb::ServingPipeline pipeline(*setup.scheduler, *setup.backend,
                                        clock, setup.pipe);
    return pipeline.run(trace);
  }
  probe->max_decode_steps = setup.opts.max_decode_steps;
  probe->cap_at_source_length = setup.opts.cap_decode_at_source_length;
  probe->from_admission = setup.spec->from_admission;
  const TimedScheduler scheduler(*setup.scheduler, *probe);
  const TimedBackend backend(*setup.backend, *probe);
  const tcb::ServingPipeline pipeline(scheduler, backend, clock, setup.pipe);
  probe->run_t0 = wall_now();
  tcb::PipelineResult result = pipeline.run(trace);
  if (probe->spans != nullptr)
    probe->spans->add("run", probe->run_t0, wall_now(),
                      "\"workload\":\"" + setup.spec->name + "\"");
  return result;
}

CheckResult check_pass(const Setup& setup,
                       const std::vector<tcb::Request>& trace,
                       const tcb::PipelineResult& result, const Probe& probe,
                       std::uint64_t seed, std::size_t sample) {
  CheckResult check;
  const auto fail = [&](std::string msg) {
    check.ok = false;
    check.errors.push_back(std::move(msg));
  };
  const tcb::ServingReport& r = result.report;
  if (r.arrived != trace.size())
    fail("arrived " + std::to_string(r.arrived) + " != trace size " +
         std::to_string(trace.size()));
  if (r.arrived != r.completed + r.failed)
    fail("arrived != completed + failed");
  if (r.completed == 0) fail("nothing completed");
  if (probe.placed.size() != r.completed)
    fail("admitted ids " + std::to_string(probe.placed.size()) +
         " != completed " + std::to_string(r.completed));
  for (const auto& [id, times] : probe.placed)
    if (times != 1) {
      fail("request " + std::to_string(id) + " admitted " +
           std::to_string(times) + " times");
      break;
    }
  if (setup.spec->analytical) return check;

  if (result.responses.size() != r.completed)
    fail("responses " + std::to_string(result.responses.size()) +
         " != completed " + std::to_string(r.completed));
  std::unordered_set<RequestId> seen;
  for (const auto& resp : result.responses)
    if (!seen.insert(resp.id).second || !probe.placed.contains(resp.id)) {
      fail("response id " + std::to_string(resp.id) + " duplicated or unknown");
      break;
    }
  if (result.responses.empty()) return check;

  // Seeded sample of completed requests, re-served alone.
  std::vector<std::size_t> order(result.responses.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  tcb::Rng rng(seed ^ 0x5eedc0deULL);
  for (std::size_t i = 0; i < std::min(sample, order.size()); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_u64() % (order.size() - i));
    std::swap(order[i], order[j]);
  }
  for (std::size_t i = 0; i < std::min(sample, order.size()); ++i) {
    const tcb::Response& resp = result.responses[order[i]];
    const tcb::Request& req = trace.at(static_cast<std::size_t>(resp.id));
    const tcb::BatchBuildResult alone = tcb::build_with_scheme(
        tcb::Scheme::kConcatSlotted, {req}, tcb::Row{1},
        tcb::Col{kRowCapacity}, kRowCapacity);
    const tcb::InferenceResult solo =
        setup.model->infer(tcb::pack_batch(alone.plan, {req}), setup.opts);
    check.resampled += 1;
    if (solo.outputs.at(req.id) != resp.tokens) {
      check.mismatched += 1;
      fail("request " + std::to_string(req.id) +
           " tokens differ from serving it alone");
    }
  }
  return check;
}

}  // namespace servebench
