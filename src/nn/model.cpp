#include "nn/model.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace tcb {

Seq2SeqModel::Seq2SeqModel(ModelConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  Rng rng(cfg_.seed);
  embedding_ = Embedding(cfg_.vocab_size, cfg_.d_model, rng);
  pe_ = SinusoidalPositionalEncoding(cfg_.max_len, cfg_.d_model);
  encoder_layers_.reserve(static_cast<std::size_t>(cfg_.n_encoder_layers));
  for (Index l = 0; l < cfg_.n_encoder_layers; ++l)
    encoder_layers_.emplace_back(cfg_, rng);
  decoder_layers_.reserve(static_cast<std::size_t>(cfg_.n_decoder_layers));
  for (Index l = 0; l < cfg_.n_decoder_layers; ++l)
    decoder_layers_.emplace_back(cfg_, rng);
  output_proj_ = Linear(cfg_.d_model, cfg_.vocab_size, rng);
}

EncoderMemory Seq2SeqModel::encode(const PackedBatch& batch,
                                   const InferenceOptions& opts) const {
  if (batch.width().value() > cfg_.max_len)
    throw std::invalid_argument(
        "Seq2SeqModel::encode: batch width " + to_string(batch.width()) +
        " exceeds max_len " + std::to_string(cfg_.max_len));
#if defined(TCB_ENABLE_DCHECKS)
  // Debug/sanitizer builds re-validate the whole plan at the engine boundary
  // (segment ordering, slot boundaries, widths) before any kernel reads it.
  batch.plan.validate();
  TCB_CHECK(batch.tokens.size() == batch.rows().usize() * batch.width().usize(),
            "Seq2SeqModel::encode: token buffer does not match plan geometry");
#endif

  Tensor x = embedding_.lookup(batch.tokens);
  if (opts.separate_positional_encoding)
    pe_.add_separate(x, batch.plan, batch.width());
  else
    pe_.add_traditional(x, batch.rows(), batch.width());

  encode_in_place(encoder_layers_, x, batch.plan, batch.width(), opts.mode,
                  opts.mask_policy);
  return EncoderMemory{std::move(x), batch.plan, batch.width()};
}

InferenceResult Seq2SeqModel::infer(const PackedBatch& batch,
                                    const InferenceOptions& opts) const {
  const EncoderMemory memory = encode(batch, opts);
  DecodeOptions dopts;
  dopts.mode = opts.mode;
  dopts.max_steps = opts.max_decode_steps;
  dopts.early_memory_cleaning = opts.early_memory_cleaning;
  dopts.cap_at_source_length = opts.cap_decode_at_source_length;
  dopts.strategy = opts.decode_strategy;
  dopts.top_k = opts.top_k;
  dopts.temperature = opts.temperature;
  dopts.sample_seed = opts.sample_seed;
  dopts.separate_positional_encoding = opts.separate_positional_encoding;
  dopts.mask_policy = opts.mask_policy;
  DecodeResult dec = greedy_decode(*this, memory, dopts);

  InferenceResult out;
  out.outputs = std::move(dec.outputs);
  out.decode_steps = dec.steps;
  out.peak_kv_bytes = dec.peak_kv_bytes;
  out.early_freed_bytes = dec.early_freed_bytes;
  out.reclaimable_kv_bytes = dec.reclaimable_kv_bytes;
  return out;
}

}  // namespace tcb
