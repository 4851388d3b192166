// One measured pass of one workload: set up, warm up, serve the trace
// through the decorated pipeline, check the outputs, and print everything
// observed as one JSON object on stdout. servebench/run.py runs passes until
// the time budget is spent and turns them into the benchmark's metrics.
//
//   servebench --workload NAME --seed N [--trace 0|1] [--spans FILE]
//
// With --trace 1 the pass records spans (written to --spans), keeps the
// formed batches and replays some of them layer by layer.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "tensor/workspace.hpp"
#include "workloads.hpp"

namespace {

using servebench::Probe;

/// Per-thread arena size set up before warm-up (see presize_arenas); the
/// engine workloads' steady state needs far less, and the traced pass
/// reports tensor.ws_chunk_allocs so an overflow would show.
constexpr std::size_t kArenaBytes = std::size_t{32} << 20;
/// Batches the traced pass replays layer by layer, spread over the run.
constexpr std::size_t kReplayBatches = 12;
/// Completed requests per pass re-served alone by the correctness gate.
constexpr std::size_t kCheckSample = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Minimal JSON object writer; numbers keep all their digits.
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    field(key, q + "\"");
  }
  void boolean(const std::string& key, bool v) {
    field(key, v ? "true" : "false");
  }
  /// A number list, each value multiplied by `scale`.
  void array(const std::string& key, const std::vector<double>& vs,
             double scale) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, i == 0 ? "%.9g" : ",%.9g", vs[i] * scale);
      s += buf;
    }
    field(key, s + "]");
  }
  void object(const std::string& key, const Json& inner) {
    field(key, inner.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + key + "\":" + raw;
  }
  std::string body_;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  return mean(v) * static_cast<double>(v.size());
}

/// Pipeline outcomes summed over a pass's episodes.
struct Totals {
  double serve_s = 0, arrived = 0, completed = 0, failed = 0, utility = 0;
  double horizon_s = 0;  ///< simulated seconds: max(makespan, last arrival)
  double batches = 0, spliced = 0, admission_s = 0, formation_s = 0;
  double peak_kv_bytes = 0, early_freed_bytes = 0, reclaimable_bytes = 0;
  std::vector<double> latency, batch_requests, occupancy, queue_depth,
      slot_occupancy;

  void add(const tcb::PipelineResult& res,
           const std::vector<tcb::Request>& trace) {
    const tcb::ServingReport& r = res.report;
    arrived += static_cast<double>(r.arrived);
    completed += static_cast<double>(r.completed);
    failed += static_cast<double>(r.failed);
    utility += r.total_utility;
    horizon_s += std::max(r.makespan, trace.empty() ? 0.0 : trace.back().arrival);
    batches += static_cast<double>(r.batches);
    spliced += static_cast<double>(r.spliced_requests);
    admission_s += r.admission_seconds;
    formation_s += r.batching_seconds;
    peak_kv_bytes =
        std::max(peak_kv_bytes, static_cast<double>(res.peak_kv_bytes));
    early_freed_bytes += static_cast<double>(res.early_freed_bytes);
    reclaimable_bytes += static_cast<double>(res.reclaimable_kv_bytes);
    const auto append = [](std::vector<double>& to, const tcb::Samples& s) {
      to.insert(to.end(), s.values().begin(), s.values().end());
    };
    append(latency, r.latency);
    append(batch_requests, r.batch_requests);
    append(occupancy, r.batch_occupancy);
    append(queue_depth, r.queue_depth);
    append(slot_occupancy, r.slot_occupancy);
  }
};

int run(const Args& args) {
  const servebench::WorkloadSpec& spec = servebench::find_workload(args.workload);

  // ---- set-up: model, trace, warm-up ----------------------------------------
  const double t_setup = servebench::wall_now();
  const servebench::Setup setup = servebench::make_setup(spec, args.seed);
  if (!spec.analytical) servebench::presize_arenas(kArenaBytes);
  // peak_rss_mb is serving's own growth over the resident model, trace and
  // pre-sized arenas. The warm-up serves a prefix of the first trace, so the
  // peak belongs to the measured serve; taking the baseline after warm-up
  // instead would leave only what the serve needs beyond the warm-up's
  // leftovers, under 1 MiB on offline_rtc.
  servebench::reset_peak_rss();
  const double rss0_mb = servebench::status_mb("VmRSS");
  (void)servebench::serve(setup, servebench::warm_up_trace(setup), nullptr);
  const double setup_s = servebench::wall_now() - t_setup;

  // ---- the measured serve --------------------------------------------------
  Probe probe;
  servebench::SpanRecorder spans;
  if (args.trace) {
    probe.spans = &spans;
    probe.capture = true;
  }
  const bool rtc = !spec.continuous;
  const std::uint64_t chunks0 = tcb::Workspace::total_chunk_allocs();
  Totals t;
  servebench::CheckResult check;
  for (const auto& trace : setup.episodes) {
    const double t0 = servebench::wall_now();
    const tcb::PipelineResult result = servebench::serve(setup, trace, &probe);
    t.serve_s += servebench::wall_now() - t0;
    t.add(result, trace);
    const std::size_t episodes = setup.episodes.size();
    servebench::CheckResult c = servebench::check_pass(
        setup, trace, result, probe, args.seed,
        (kCheckSample + episodes - 1) / episodes);
    check.ok = check.ok && c.ok;
    check.resampled += c.resampled;
    check.mismatched += c.mismatched;
    for (auto& e : c.errors) check.errors.push_back(std::move(e));
    probe.placed.clear();  // ids restart in every episode
  }
  const std::uint64_t chunk_allocs =
      tcb::Workspace::total_chunk_allocs() - chunks0;
  const double rss_mb = servebench::status_mb("VmHWM") - rss0_mb;

  // ---- traced replay ---------------------------------------------------------
  servebench::ReplayStats rep;
  if (args.trace) {
    if (setup.model != nullptr)
      rep = servebench::replay(*setup.model, *setup.cost, setup.opts,
                               probe.captured, kReplayBatches, &spans);
    else
      rep.cost_model_decode_share =
          servebench::cost_model_decode_share(*setup.cost, probe.captured);
    if (!args.spans.empty()) spans.write_json(args.spans);
  }

  // A batch sample is the engine call that takes in newly admitted requests:
  // execute() under RTC; the prologue or a splice under continuous batching
  // (the analytical backend's splices only stage a price, so its prologues
  // alone). A continuous batch's lifetime is a span, not a sample.
  std::vector<double> batch_s = rtc ? probe.execute_s : probe.prologue_s;
  if (!rtc && !spec.analytical)
    batch_s.insert(batch_s.end(), probe.splice_s.begin(), probe.splice_s.end());
  Json samples;
  samples.array("batch_ms", batch_s, 1e3);
  samples.array("tbt_ms", probe.step_s, 1e3);
  samples.array("ttft_ms", probe.ttft_s, 1e3);
  samples.array("latency_ms",
                rtc                   ? probe.rtc_latency_s
                : spec.from_admission ? probe.admission_latency_s
                                      : t.latency,
                1e3);

  Json layers;
  const double completed = t.completed;
  layers.num("serving.batches", t.batches);
  layers.num("serving.requests_per_batch", mean(t.batch_requests));
  layers.num("serving.batch_occupancy", mean(t.occupancy));
  layers.num("serving.queue_depth_p50", quantile(t.queue_depth, 0.5));
  layers.num("serving.spliced_share",
             completed > 0 ? t.spliced / completed : 0.0);
  layers.num("serving.slot_occupancy", mean(t.slot_occupancy));
  layers.num("serving.admission_ms", t.admission_s * 1e3);
  layers.num("serving.formation_ms", t.formation_s * 1e3);
  layers.num("sched.select_calls", static_cast<double>(probe.select_s.size()));
  layers.num("sched.select_ms", sum(probe.select_s) * 1e3);
  layers.num("sched.select_us_p50", quantile(probe.select_s, 0.5) * 1e6);
  layers.num("sched.slots_calls", static_cast<double>(probe.slots_s.size()));
  layers.num("sched.slots_ms", sum(probe.slots_s) * 1e3);
  layers.num("nn.prologue_ms_p50",
             rtc ? quantile(rep.prologue_ms, 0.5)
                 : quantile(probe.prologue_s, 0.5) * 1e3);
  layers.num("nn.splice_calls", static_cast<double>(probe.splice_s.size()));
  layers.num("nn.splice_ms", sum(probe.splice_s) * 1e3);
  layers.num("nn.active_tracks_mean",
             rtc ? rep.active_tracks_mean : mean(probe.active_tracks));
  layers.num("nn.encode_ms", rep.encode_ms);
  layers.num("nn.decode_ms", rep.decode_ms);
  layers.num("nn.decode_share", rep.decode_share);
  layers.num("nn.enc_attn_ms", rep.enc_attn_ms);
  layers.num("nn.enc_ffn_ms", rep.enc_ffn_ms);
  layers.num("nn.layernorm_ms", rep.layernorm_ms);
  layers.num("nn.attn_score_entries", rep.attn_score_entries);
  layers.num("nn.dec_proj_ms", rep.dec_proj_ms);
  layers.num("nn.dec_ffn_ms", rep.dec_ffn_ms);
  layers.num("nn.logits_ms", rep.logits_ms);
  layers.num("nn.dec_attn_rest_ms", rep.dec_attn_rest_ms);
  layers.num("nn.kv_peak_mb", t.peak_kv_bytes / (1024.0 * 1024.0));
  layers.num("nn.kv_early_freed_share",
             t.reclaimable_bytes > 0 ? t.early_freed_bytes / t.reclaimable_bytes
                                     : 0.0);
  layers.num("tensor.ws_chunk_allocs", static_cast<double>(chunk_allocs));
  layers.num("tensor.ws_reserved_mb",
             static_cast<double>(tcb::Workspace::total_reserved_bytes()) /
                 (1024.0 * 1024.0));
  layers.num("tensor.gemm_gflops", rep.gemm_gflops);
  layers.num("cost_model.decode_share", rep.cost_model_decode_share);

  Json checks;
  checks.boolean("ok", check.ok && rep.encode_exact);
  checks.num("resampled", static_cast<double>(check.resampled));
  checks.boolean("replay_encode_exact", rep.encode_exact);
  if (!rep.encode_exact)
    check.errors.emplace_back("replay encoder differs from encode()");
  std::string errors;
  for (const auto& e : check.errors) errors += (errors.empty() ? "" : "; ") + e;
  checks.str("errors", errors);

  Json machine;
  machine.str("cpu", cpu_model());
  machine.num("nproc", std::thread::hardware_concurrency());
  machine.num("pool_parallelism",
              static_cast<double>(tcb::ThreadPool::global().parallelism()));
  machine.str("build_type", SERVEBENCH_BUILD_TYPE);

  Json out;
  out.str("workload", spec.name);
  out.num("seed", static_cast<double>(args.seed));
  out.boolean("traced", args.trace);
  out.num("setup_s", setup_s);
  out.num("serve_s", t.serve_s);
  out.num("episodes", static_cast<double>(setup.episodes.size()));
  out.num("arrived", t.arrived);
  out.num("completed", completed);
  out.num("failed", t.failed);
  // Requests the pipeline failed plus completed ones whose tokens differ
  // from serving them alone.
  out.num("failed_requests", t.failed + static_cast<double>(check.mismatched));
  out.num("generated_tokens", probe.generated_tokens);
  out.num("utility", t.utility);
  out.num("goodput_rps", t.horizon_s > 0 ? completed / t.horizon_s : 0.0);
  out.num("peak_rss_mb", rss_mb);
  out.num("replayed_batches", static_cast<double>(rep.batches));
  out.num("spans", static_cast<double>(spans.size()));
  out.num("spans_dropped", static_cast<double>(spans.dropped()));
  out.object("samples", samples);
  out.object("layers", layers);
  out.object("checks", checks);
  out.object("machine", machine);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "servebench: refusing to measure a non-optimized build (%s)\n",
               SERVEBENCH_BUILD_TYPE);
  return 3;
#else
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
#endif
}
