// google-benchmark micro kernels: GEMM, masked softmax, layer norm, GELU,
// the two attention execution paths (pure full-row vs slotted) on identical
// payloads, a full encoder layer at BERT-base dimensions, a continuous-
// batching splice, a decode step of a long-spliced session, and the thread
// pool's fork-join cost. These quantify
// the kernel-level redundancy the slotted scheme removes, independent of any
// serving dynamics. The *Ref variants run the naive scalar reference kernels
// (src/tensor/kernel_ref.hpp) so the blocked/SIMD speedup is visible in the
// same JSON report.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batching/packed_batch.hpp"
#include "batching/slotted_batcher.hpp"
#include "nn/attention.hpp"
#include "nn/encoder.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernel_ref.hpp"
#include "tensor/ops.hpp"
#include "util/env.hpp"

namespace tcb {
namespace {

void BM_Matmul(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::random_uniform(Shape{n, n}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{n, n}, rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

/// Decode-shaped GEMMs: a slice of m tracks through the default model's
/// projections (k = d_model = 128; n = 128 for Q/K/V/O, 512 for the FFN
/// up-projection, 1024 for the logits). These shapes route to the in-place
/// tiled path; the sweep is what gemm.cpp's blocked-path threshold was
/// picked from.
void BM_MatmulDecode(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = state.range(1);
  constexpr Index k = 128;
  Rng rng(3);
  const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{k, n}, rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatmulDecode)
    ->ArgsProduct({{1, 4, 10, 20, 40}, {128, 512, 1024}})
    ->ArgNames({"m", "n"});

void BM_MatmulRef(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::random_uniform(Shape{n, n}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{n, n}, rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    ref::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulRef)->Arg(128)->Arg(256);

void BM_MatmulNt(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(2);
  const Tensor a = Tensor::random_uniform(Shape{n, n}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{n, n}, rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    matmul_nt(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
}
BENCHMARK(BM_MatmulNt)->Arg(128)->Arg(256);

void BM_MaskedSoftmax(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(3);
  Tensor base = Tensor::random_uniform(Shape{n, n}, rng, 2.0f);
  // Mask everything off the block diagonal (4 blocks).
  const Index block = n / 4;
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      if (i / block != j / block) base.at(i, j) = kMaskedOut;
  for (auto _ : state) {
    Tensor t = base.clone();
    softmax_rows_inplace(t);
    benchmark::DoNotOptimize(t.raw());
  }
}
BENCHMARK(BM_MaskedSoftmax)->Arg(128)->Arg(400);

void BM_LayerNorm(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(5);
  const Tensor x = Tensor::random_uniform(Shape{512, n}, rng, 1.0f);
  const Tensor gamma = Tensor::random_uniform(Shape{n}, rng, 1.0f);
  const Tensor beta = Tensor::random_uniform(Shape{n}, rng, 1.0f);
  Tensor out;
  for (auto _ : state) {
    layer_norm(x, gamma, beta, 1e-5f, out);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * 512 * n);
}
BENCHMARK(BM_LayerNorm)->Arg(256)->Arg(768);

/// Builds a single-row plan of `slots` segments, each `z` tokens, in the
/// layout the given mode expects (slot-per-segment when slotted).
BatchPlan attention_plan(Index z, Index slots, AttentionMode mode) {
  const Index width = z * slots;
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme =
      mode == AttentionMode::kSlotted ? Scheme::kConcatSlotted : Scheme::kConcatPure;
  plan.slot_len = mode == AttentionMode::kSlotted ? z : 0;
  RowLayout row;
  for (Index s = 0; s < slots; ++s)
    row.segments.push_back(Segment{
        s, s * z, z, mode == AttentionMode::kSlotted ? s : static_cast<Index>(0)});
  row.width = width;
  plan.rows.push_back(row);
  return plan;
}

ModelConfig attention_cfg() {
  ModelConfig cfg;
  cfg.d_model = 128;
  cfg.n_heads = 8;
  cfg.d_ff = 512;
  cfg.max_len = 512;
  return cfg;
}

/// Attention-work counters for a plan where every query attends `k_len`
/// keys. items_per_second becomes attention FLOP/s (score + value madds,
/// projections excluded); bytes_touched is the streamed unique-byte
/// footprint per forward (Q/K/V reads, head-output writes, and the packed
/// K^T panels), so items / bytes is the kernel's arithmetic intensity.
void set_attention_counters(benchmark::State& state, Index tokens, Index k_len,
                            Index d) {
  const double flops = 4.0 * static_cast<double>(tokens) *
                       static_cast<double>(k_len) * static_cast<double>(d);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flops));
  const double bytes = sizeof(float) * 5.0 * static_cast<double>(tokens) *
                       static_cast<double>(d);
  state.counters["bytes_touched"] = benchmark::Counter(
      bytes, benchmark::Counter::kIsIterationInvariantRate);
}

/// Pure path over `segments` segments of `k_len` tokens each: every query's
/// admitted span — the k_len of the attention — is its own segment.
void BM_AttentionPure(benchmark::State& state) {
  const Index k_len = state.range(0);
  const Index segments = state.range(1);
  const Index width = k_len * segments;
  const ModelConfig cfg = attention_cfg();
  Rng rng(4);
  const MultiHeadAttention mha(cfg, rng);
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  const BatchPlan plan = attention_plan(k_len, segments, AttentionMode::kPureConcat);
  for (auto _ : state) {
    const Tensor y =
        mha.encoder_forward(x, plan, Col{width}, AttentionMode::kPureConcat);
    benchmark::DoNotOptimize(y.raw());
  }
  set_attention_counters(state, width, k_len, cfg.d_model);
}
BENCHMARK(BM_AttentionPure)
    ->ArgNames({"k_len", "segments"})
    ->Args({100, 4})  // the historical 400-token payload
    ->Args({512, 2})
    ->Args({1024, 2})
    ->Args({2048, 2});

void BM_AttentionSlotted(benchmark::State& state) {
  const Index k_len = state.range(0);
  const Index slots = state.range(1);
  const Index width = k_len * slots;
  const ModelConfig cfg = attention_cfg();
  Rng rng(4);
  const MultiHeadAttention mha(cfg, rng);
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  const BatchPlan plan = attention_plan(k_len, slots, AttentionMode::kSlotted);
  for (auto _ : state) {
    const Tensor y =
        mha.encoder_forward(x, plan, Col{width}, AttentionMode::kSlotted);
    benchmark::DoNotOptimize(y.raw());
  }
  set_attention_counters(state, width, k_len, cfg.d_model);
}
BENCHMARK(BM_AttentionSlotted)
    ->ArgNames({"k_len", "slots"})
    ->Args({100, 4})  // the historical 400-token payloads
    ->Args({40, 10})
    ->Args({512, 2})
    ->Args({1024, 2})
    ->Args({2048, 2});

/// The flash kernel on single-segment payloads. The fused kernel it was
/// measured against (README) is gone; the `flash:1` argument stays so these
/// instances keep the names the committed baseline and the CI gate compare.
void BM_AttentionFlashVsFused(benchmark::State& state) {
  const Index k_len = state.range(0);
  const ModelConfig cfg = attention_cfg();
  Rng rng(4);
  const MultiHeadAttention mha(cfg, rng);
  const Tensor x = Tensor::random_uniform(Shape{k_len, cfg.d_model}, rng, 1.0f);
  const BatchPlan plan = attention_plan(k_len, 1, AttentionMode::kPureConcat);
  for (auto _ : state) {
    const Tensor y =
        mha.encoder_forward(x, plan, Col{k_len}, AttentionMode::kPureConcat);
    benchmark::DoNotOptimize(y.raw());
  }
  set_attention_counters(state, k_len, k_len, cfg.d_model);
}
BENCHMARK(BM_AttentionFlashVsFused)
    ->ArgNames({"k_len", "flash"})
    ->Args({512, 1})
    ->Args({1024, 1})
    ->Args({2048, 1});

/// Same payload as BM_AttentionPure but through the pre-optimization
/// full-matrix scalar path; the Pure/PureRef ratio is the flash-kernel
/// speedup on identical work.
void BM_AttentionPureRef(benchmark::State& state) {
  const Index width = 400;
  const Index slots = state.range(0);
  const ModelConfig cfg = attention_cfg();
  Rng rng(4);
  const MultiHeadAttention mha(cfg, rng);
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatPure;
  plan.slot_len = 0;
  RowLayout row;
  const Index z = width / slots;
  for (Index s = 0; s < slots; ++s)
    row.segments.push_back(Segment{s, s * z, z, 0});
  row.width = width;
  plan.rows.push_back(row);
  for (auto _ : state) {
    const Tensor y = mha.encoder_forward_reference(x, plan, Col{width},
                                                   AttentionMode::kPureConcat);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_AttentionPureRef)->Arg(4)->ArgName("segments");

/// Full encoder layer (attention + FFN + two layer norms) at BERT-base
/// dimensions: d_model 768, 12 heads, d_ff 3072, through the row-split
/// encode_in_place the model runs (each iteration also copies the input,
/// since the layer overwrites it). The widths 128/256 bracket the
/// concatenated-row sizes the serving experiments use.
void BM_EncoderLayer(benchmark::State& state) {
  const Index width = state.range(0);
  ModelConfig cfg;
  cfg.d_model = 768;
  cfg.n_heads = 12;
  cfg.d_ff = 3072;
  cfg.max_len = 512;
  Rng rng(7);
  const EncoderLayer layer(cfg, rng);
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatPure;
  plan.slot_len = 0;
  RowLayout row;
  const Index z = width / 4;
  for (Index s = 0; s < 4; ++s)
    row.segments.push_back(Segment{s, s * z, z, 0});
  row.width = width;
  plan.rows.push_back(row);
  const std::span<const EncoderLayer> layers(&layer, 1);
  Tensor y;
  for (auto _ : state) {
    y = x;  // same-size copy-assign: reuses y's storage
    encode_in_place(layers, y, plan, Col{width}, AttentionMode::kPureConcat,
                    MaskPolicy::kSegment);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_EncoderLayer)->Arg(128)->Arg(256)->ArgName("width");

/// One continuous-batching admission: DecodeSession::splice of a cohort of
/// one `tokens`-token request into a vacated 50-column slot of a warmed
/// ModelConfig{} slotted 8 x 100 session (mini-encode, then the encoder
/// states and every decoder layer's cross K/V written into the span). The
/// session decodes one step so every slot is released, and is rebuilt,
/// untimed, once its 16 slots are used.
void BM_Splice(benchmark::State& state) {
  const Index tokens = state.range(0);
  static const Seq2SeqModel model{ModelConfig{}};
  const ModelConfig& cfg = model.config();
  constexpr Index kSlot = 50;
  Rng rng(11);
  const auto request = [&](RequestId id, Index len) {
    Request r;
    r.id = id;
    r.length = len;
    for (Index t = 0; t < len; ++t)
      r.tokens.push_back(rng.uniform_int(kFirstWordToken, cfg.vocab_size - 1));
    return r;
  };
  std::vector<Request> reqs;
  for (RequestId id = 0; id < 16; ++id)
    reqs.push_back(request(id, rng.uniform_int(20, kSlot)));
  const SlottedConcatBatcher batcher(kSlot);
  const BatchBuildResult built = batcher.build(reqs, Row{8}, Col{100});
  InferenceOptions enc;
  enc.mode = AttentionMode::kSlotted;
  const EncoderMemory memory = model.encode(pack_batch(built.plan, reqs), enc);
  DecodeOptions opts;
  opts.mode = AttentionMode::kSlotted;
  opts.max_steps = 1;  // one step finishes every track and frees every slot
  opts.early_memory_cleaning = true;
  const std::vector<Request> cohort = {request(100, tokens)};

  std::unique_ptr<DecodeSession> session;
  std::vector<SlotRelease> vacant;
  for (auto _ : state) {
    if (vacant.empty()) {
      state.PauseTiming();
      session = std::make_unique<DecodeSession>(model, memory, opts);
      vacant = session->step().released;
      state.ResumeTiming();
    }
    const SlotRelease rel = vacant.back();
    vacant.pop_back();
    session->splice(rel.row, rel.slot, rel.begin, rel.width, cohort);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_Splice)->Arg(20)->Arg(45)->ArgName("tokens");

/// A ModelConfig{} slotted 8 x 100 session in slots of 20: 40 formation
/// requests of 3-20 tokens, each decoding up to its source length, and one
/// fresh request spliced into every slot a step releases.
class SplicingSession {
 public:
  explicit SplicingSession(const Seq2SeqModel& model) : model_(model) {
    std::vector<Request> reqs;
    for (int i = 0; i < 40; ++i)
      reqs.push_back(request(rng_.uniform_int(3, kSlot)));
    const BatchBuildResult built =
        SlottedConcatBatcher(kSlot).build(reqs, Row{8}, Col{100});
    DecodeOptions opts;
    opts.mode = AttentionMode::kSlotted;
    opts.max_steps = 32;
    opts.cap_at_source_length = true;
    opts.early_memory_cleaning = true;
    InferenceOptions enc;
    enc.mode = opts.mode;
    session_ = std::make_unique<DecodeSession>(
        model_, model_.encode(pack_batch(built.plan, reqs), enc), opts);
  }

  /// One decoder iteration; returns the slots it released.
  std::vector<SlotRelease> step() { return session_->step().released; }
  /// Splices one fresh request into each released slot.
  void refill(const std::vector<SlotRelease>& released) {
    for (const SlotRelease& rel : released)
      session_->splice(rel.row, rel.slot, rel.begin, rel.width,
                       {request(rng_.uniform_int(3, rel.width))});
    splices_ += released.size();
  }
  [[nodiscard]] std::size_t splices() const noexcept { return splices_; }

 private:
  static constexpr Index kSlot = 20;

  Request request(Index length) {
    Request r;
    r.id = next_id_++;
    r.length = length;
    for (Index t = 0; t < length; ++t)
      r.tokens.push_back(
          rng_.uniform_int(kFirstWordToken, model_.config().vocab_size - 1));
    return r;
  }

  const Seq2SeqModel& model_;
  Rng rng_{13};
  RequestId next_id_ = 0;
  std::unique_ptr<DecodeSession> session_;
  std::size_t splices_ = 0;
};

/// One decode step of a SplicingSession that has already absorbed `splices`
/// splices (each session is built once per process and keeps running across
/// repetitions); the refill after each step is untimed. Per-step cost must
/// not grow with the tracks a session has ever admitted, so splices:10000
/// should read like splices:0.
void BM_DecodeStep(benchmark::State& state) {
  static const Seq2SeqModel model{ModelConfig{}};
  static std::map<std::int64_t, std::unique_ptr<SplicingSession>> sessions;
  auto& session = sessions[state.range(0)];
  if (!session) {
    session = std::make_unique<SplicingSession>(model);
    while (session->splices() < static_cast<std::size_t>(state.range(0)))
      session->refill(session->step());
  }
  for (auto _ : state) {
    const std::vector<SlotRelease> released = session->step();
    state.PauseTiming();
    session->refill(released);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DecodeStep)->Arg(0)->Arg(10000)->ArgName("splices");

/// Fork-join cost of one parallel region: an empty 4-chunk parallel_for on
/// a 3-worker pool, back to back (gap_us:0, workers still polling) and
/// after an untimed 200 us idle gap (workers parked on the condition
/// variable, so the region pays their wake-up).
void BM_ForkJoin(benchmark::State& state) {
  static ThreadPool pool(3);
  const auto gap = std::chrono::microseconds(state.range(0));
  const auto empty = [](std::size_t, std::size_t) {};
  for (int i = 0; i < 16; ++i) pool.parallel_for(4, 1, empty);
  for (auto _ : state) {
    if (gap.count() > 0) {
      state.PauseTiming();
      std::this_thread::sleep_for(gap);
      state.ResumeTiming();
    }
    pool.parallel_for(4, 1, empty);
  }
}
BENCHMARK(BM_ForkJoin)->Arg(0)->Arg(200)->ArgName("gap_us")->UseRealTime();

/// L1d and L2 sizes of cpu0, read from sysfs; a level that cannot be read
/// keeps its conservative fallback (32 KiB / 1 MiB).
struct CacheGeometry {
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
};

/// Parses a sysfs cache size string ("48K", "2048K", "1M", "36608K").
std::size_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return 0;
  std::size_t mult = 1;
  if (*end == 'K' || *end == 'k') mult = 1024;
  if (*end == 'M' || *end == 'm') mult = 1024 * 1024;
  return static_cast<std::size_t>(v) * mult;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

CacheGeometry cache_geometry() {
  CacheGeometry g;
  // /sys/devices/system/cpu/cpu0/cache/indexN/{level,type,size}; index order
  // is not guaranteed to match level order, so scan and match.
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_line(base + "level");
    if (level.empty()) continue;
    const std::string type = read_line(base + "type");
    const std::size_t size = parse_cache_size(read_line(base + "size"));
    if (size == 0) continue;
    if (level == "1" && type == "Data")
      g.l1d_bytes = size;
    else if (level == "2" && (type == "Unified" || type == "Data"))
      g.l2_bytes = size;
  }
  return g;
}

}  // namespace
}  // namespace tcb

int main(int argc, char** argv) {
  // A stored baseline is only comparable with a run on the same cache
  // geometry: scripts/check_bench_regression.py keys its gate on these.
  const tcb::CacheGeometry geo = tcb::cache_geometry();
  benchmark::AddCustomContext("tcb_cache_l1d", std::to_string(geo.l1d_bytes));
  benchmark::AddCustomContext("tcb_cache_l2", std::to_string(geo.l2_bytes));
#ifdef NDEBUG
  benchmark::AddCustomContext("tcb_library_build_type", "release");
#else
  benchmark::AddCustomContext("tcb_library_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
