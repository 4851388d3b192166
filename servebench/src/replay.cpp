#include "replay.hpp"

#include <algorithm>
#include <cstring>

#include "batching/packed_batch.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace servebench {
namespace {

/// The model's encoder layers rebuilt from the same weight seed, in the same
/// construction order as Seq2SeqModel's constructor, so its attention and
/// FFN weights are the model's own and each piece can be timed alone.
struct EncoderReplica {
  explicit EncoderReplica(const tcb::ModelConfig& cfg)
      : gamma(tcb::Shape{cfg.d_model}, 1.0f),
        beta(tcb::Shape{cfg.d_model}, 0.0f),
        eps(cfg.layer_norm_eps) {
    tcb::Rng rng(cfg.seed);
    const tcb::Embedding skip(cfg.vocab_size, cfg.d_model, rng);
    for (Index l = 0; l < cfg.n_encoder_layers; ++l) {
      attn.emplace_back(cfg, rng);
      ffn.emplace_back(cfg, rng);
    }
  }
  std::vector<tcb::MultiHeadAttention> attn;
  std::vector<tcb::FeedForward> ffn;
  tcb::Tensor gamma, beta;
  float eps;
};

/// Accumulates wall time of a callable into `acc`, returning its result.
template <typename F>
auto timed(double& acc, F&& fn) {
  const double t0 = wall_now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += wall_now() - t0;
  } else {
    auto out = fn();
    acc += wall_now() - t0;
    return out;
  }
}

tcb::DecodeOptions decode_options(const tcb::InferenceOptions& o) {
  tcb::DecodeOptions d;  // the same mapping Seq2SeqModel::infer applies
  d.mode = o.mode;
  d.max_steps = o.max_decode_steps;
  d.early_memory_cleaning = o.early_memory_cleaning;
  d.cap_at_source_length = o.cap_decode_at_source_length;
  d.strategy = o.decode_strategy;
  d.top_k = o.top_k;
  d.temperature = o.temperature;
  d.sample_seed = o.sample_seed;
  d.separate_positional_encoding = o.separate_positional_encoding;
  d.mask_policy = o.mask_policy;
  return d;
}

std::vector<std::size_t> spread(std::size_t n, std::size_t max_batches) {
  std::vector<std::size_t> picks;
  const std::size_t k = std::min(n, max_batches);
  for (std::size_t i = 0; i < k; ++i) picks.push_back(i * n / k);
  return picks;
}

}  // namespace

double cost_model_decode_share(const tcb::AnalyticalCostModel& cost,
                               const std::vector<tcb::BatchWork>& captured) {
  double dec = 0, total = 0;
  for (const auto& work : captured) {
    const tcb::CostBreakdown b = cost.breakdown(work.plan);
    dec += b.decoder_seconds;
    total += b.total_seconds();
  }
  return total > 0 ? dec / total : 0.0;
}

ReplayStats replay(const tcb::Seq2SeqModel& model,
                   const tcb::AnalyticalCostModel& cost,
                   const tcb::InferenceOptions& opts,
                   const std::vector<tcb::BatchWork>& captured,
                   std::size_t max_batches, SpanRecorder* spans) {
  const tcb::ModelConfig& cfg = model.config();
  const Index d = cfg.d_model;
  const EncoderReplica replica(cfg);
  const tcb::DecodeOptions dopts = decode_options(opts);
  tcb::Rng rng(7);

  ReplayStats st;
  double pack = 0, encode = 0, decode = 0, enc_attn = 0, enc_ffn = 0,
         enc_ln = 0, dec_ln = 0, proj = 0, ffn = 0, logits = 0, proj_flops = 0,
         entries = 0, tracks = 0, steps = 0;
  std::vector<tcb::BatchWork> replayed;
  for (const std::size_t i : spread(captured.size(), max_batches)) {
    const tcb::BatchWork& work = captured[i];
    replayed.push_back(work);
    const double tb = wall_now();

    // ---- pack + encode, as the engine runs them --------------------------
    double t_pack = 0, t_enc = 0;
    const tcb::PackedBatch packed =
        timed(t_pack, [&] { return tcb::pack_batch(work.plan, work.requests); });
    tcb::EncoderMemory mem =
        timed(t_enc, [&] { return model.encode(packed, opts); });
    pack += t_pack;
    encode += t_enc;
    st.prologue_ms.push_back((t_pack + t_enc) * 1e3);
    entries += static_cast<double>(
        tcb::score_entries(work.plan, packed.width(), opts.mode));

    // ---- the same encode, piece by piece on the replica ------------------
    tcb::Tensor x = model.embedding().lookup(packed.tokens);
    if (opts.separate_positional_encoding)
      model.positional_encoding().add_separate(x, packed.plan, packed.width());
    else
      model.positional_encoding().add_traditional(x, packed.rows(),
                                                  packed.width());
    for (std::size_t l = 0; l < replica.attn.size(); ++l) {
      tcb::Tensor a = timed(enc_attn, [&] {
        return replica.attn[l].encoder_forward(x, packed.plan, packed.width(),
                                               opts.mode, opts.mask_policy);
      });
      tcb::add_inplace(a, x);
      tcb::Tensor h;
      timed(enc_ln, [&] {
        tcb::layer_norm(a, replica.gamma, replica.beta, replica.eps, h);
      });
      tcb::Tensor f = timed(enc_ffn, [&] { return replica.ffn[l].forward(h); });
      tcb::add_inplace(f, h);
      timed(enc_ln, [&] {
        tcb::layer_norm(f, replica.gamma, replica.beta, replica.eps, x);
      });
    }
    const auto got = x.data();
    const auto want = mem.states.data();
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0)
      st.encode_exact = false;
    const Index src_tokens = mem.states.dim(0);

    // ---- decode: session construction (cross K/V) + every iteration ------
    std::vector<Index> active_per_step;
    {
      const double t0 = wall_now();
      tcb::DecodeSession session(model, std::move(mem), dopts);
      double t_dec = wall_now() - t0;
      while (!session.done()) {
        Index active = 0;
        for (const auto& t : session.tracks()) active += t.finished ? 0 : 1;
        active_per_step.push_back(active);
        timed(t_dec, [&] { (void)session.step(); });
      }
      decode += t_dec;
    }

    // ---- the decoder's public pieces at the same shapes ------------------
    const auto& layers = model.decoder_layers();
    const tcb::Tensor src =
        tcb::Tensor::random_uniform(tcb::Shape{src_tokens, d}, rng, 1.0f);
    for (const auto& layer : layers) {
      timed(proj, [&] {
        (void)layer.cross_attn().wk().forward(src);
        (void)layer.cross_attn().wv().forward(src);
      });
      proj_flops += 2.0 * 2.0 * static_cast<double>(src_tokens) * d * d;
    }
    for (const Index a : active_per_step) {
      tracks += static_cast<double>(a);
      steps += 1;
      const tcb::Tensor xs =
          tcb::Tensor::random_uniform(tcb::Shape{a, d}, rng, 1.0f);
      for (const auto& layer : layers) {
        timed(proj, [&] {
          (void)layer.self_attn().wq().forward(xs);
          (void)layer.self_attn().wk().forward(xs);
          (void)layer.self_attn().wv().forward(xs);
          (void)layer.self_attn().wo().forward(xs);
          (void)layer.cross_attn().wq().forward(xs);
          (void)layer.cross_attn().wo().forward(xs);
        });
        proj_flops += 6.0 * 2.0 * static_cast<double>(a) * d * d;
        timed(dec_ln, [&] {
          for (int k = 0; k < 3; ++k) {
            tcb::Tensor y;
            tcb::layer_norm(xs, layer.ln_gamma(k), layer.ln_beta(k),
                            layer.eps(), y);
          }
        });
        timed(ffn, [&] { (void)layer.ffn().forward(xs); });
      }
      timed(logits, [&] {
        (void)tcb::argmax_rows(model.output_projection().forward(xs));
      });
    }
    if (spans != nullptr)
      spans->add("replay.batch", tb, wall_now(),
                 "\"steps\":" + std::to_string(active_per_step.size()));
    st.batches += 1;
  }
  if (st.batches == 0) return st;

  const double per = 1e3 / static_cast<double>(st.batches);
  st.pack_ms = pack * per;
  st.encode_ms = encode * per;
  st.decode_ms = decode * per;
  st.enc_attn_ms = enc_attn * per;
  st.enc_ffn_ms = enc_ffn * per;
  st.layernorm_ms = (enc_ln + dec_ln) * per;
  st.dec_proj_ms = proj * per;
  st.dec_ffn_ms = ffn * per;
  st.logits_ms = logits * per;
  st.dec_attn_rest_ms = st.decode_ms - st.dec_proj_ms - st.dec_ffn_ms -
                        st.logits_ms - dec_ln * per;
  st.gemm_gflops = proj > 0 ? proj_flops / proj / 1e9 : 0.0;
  st.attn_score_entries = entries / static_cast<double>(st.batches);
  st.active_tracks_mean = steps > 0 ? tracks / steps : 0.0;
  st.decode_share = decode / (encode + decode);
  st.cost_model_decode_share = cost_model_decode_share(cost, replayed);
  return st;
}

}  // namespace servebench
