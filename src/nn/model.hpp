// Seq2SeqModel: the paper's evaluation model (§6.1) — a Vaswani
// encoder-decoder transformer with TCB's engine customizations (separate
// positional encoding, concat-aware masked attention, slotted attention,
// early memory cleaning).
//
// All weights are deterministic functions of ModelConfig::seed, so two model
// instances with the same config are identical — the equivalence tests and
// the benches rely on this.
#pragma once

#include "batching/packed_batch.hpp"
#include "nn/decoder.hpp"
#include "nn/embedding.hpp"
#include "nn/encoder.hpp"
#include "nn/positional_encoding.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

// EncoderMemory lives in nn/decoder.hpp (DecodeSession holds one by value).

struct InferenceOptions {
  AttentionMode mode = AttentionMode::kPureConcat;
  /// TCB's separate positional encoding (paper §4.1.1). Turning it off
  /// applies the traditional whole-row encoding — wrong under concatenation;
  /// kept for the correctness demonstrations.
  bool separate_positional_encoding = true;
  /// TCB's customized attention mask (paper §4.1.2). kRowShared demonstrates
  /// the wrong results the default inference algorithm would produce.
  MaskPolicy mask_policy = MaskPolicy::kSegment;
  Index max_decode_steps = 32;
  bool early_memory_cleaning = false;
  /// See DecodeOptions::cap_at_source_length.
  bool cap_decode_at_source_length = false;
  /// Next-token rule; kTopK samples with per-request streams, preserving the
  /// batching-equivalence property (see DecodeOptions).
  DecodeStrategy decode_strategy = DecodeStrategy::kGreedy;
  Index top_k = 4;
  float temperature = 1.0f;
  std::uint64_t sample_seed = 1;
};

struct InferenceResult {
  std::unordered_map<RequestId, std::vector<Index>> outputs;
  Index decode_steps = 0;
  std::size_t peak_kv_bytes = 0;
  std::size_t early_freed_bytes = 0;
  /// See DecodeResult::reclaimable_kv_bytes.
  std::size_t reclaimable_kv_bytes = 0;
};

class Seq2SeqModel {
 public:
  explicit Seq2SeqModel(ModelConfig cfg);

  [[nodiscard]] const ModelConfig& config() const noexcept TCB_LIFETIME_BOUND {
    return cfg_;
  }

  /// Runs the encoder stack over a packed batch: embedding + PE, then
  /// encode_in_place's row-split regions (nn/encoder.hpp).
  /// TCB_BITWISE under the default options (separate positional encoding +
  /// segment mask): a request's encoded states are identical whatever rides
  /// alongside it. The traditional-PE / row-shared fallbacks break that by
  /// design — they exist as the paper's wrong-baseline demonstrations.
  [[nodiscard]] EncoderMemory encode(const PackedBatch& batch,
                                     const InferenceOptions& opts) const
      TCB_BITWISE;

  /// Full inference: encode + greedy decode, returning generated tokens per
  /// request.
  [[nodiscard]] InferenceResult infer(const PackedBatch& batch,
                                      const InferenceOptions& opts) const;

  // Internals exposed to the step-wise decoder ------------------------------
  [[nodiscard]] const Embedding& embedding() const noexcept TCB_LIFETIME_BOUND {
    return embedding_;
  }
  [[nodiscard]] const SinusoidalPositionalEncoding& positional_encoding()
      const noexcept TCB_LIFETIME_BOUND {
    return pe_;
  }
  [[nodiscard]] const std::vector<DecoderLayer>& decoder_layers() const noexcept
      TCB_LIFETIME_BOUND {
    return decoder_layers_;
  }
  [[nodiscard]] const Linear& output_projection() const noexcept
      TCB_LIFETIME_BOUND {
    return output_proj_;
  }

 private:
  ModelConfig cfg_;
  Embedding embedding_;
  SinusoidalPositionalEncoding pe_;
  std::vector<EncoderLayer> encoder_layers_;
  std::vector<DecoderLayer> decoder_layers_;
  Linear output_proj_;
};

}  // namespace tcb
