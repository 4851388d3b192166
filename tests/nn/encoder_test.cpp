#include "nn/encoder.hpp"

#include <gtest/gtest.h>

#include "batching/packed_batch.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"

namespace tcb {
namespace {

/// One row holding one request of `len` random word tokens.
PackedBatch one_request(Index len, const ModelConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  Request req;
  req.id = 0;
  req.length = len;
  for (Index t = 0; t < len; ++t)
    req.tokens.push_back(rng.uniform_int(kFirstWordToken, cfg.vocab_size - 1));
  BatchPlan plan;
  plan.scheme = Scheme::kConcatPure;
  plan.row_capacity = len;
  RowLayout row;
  row.width = len;
  row.segments.push_back(Segment{0, 0, len, 0});
  plan.rows.push_back(row);
  return pack_batch(plan, {req});
}

TEST(EncoderTest, PreservesShape) {
  const ModelConfig cfg = ModelConfig::test_scale();
  const Seq2SeqModel model(cfg);
  const EncoderMemory mem = model.encode(one_request(8, cfg, 2), {});
  EXPECT_EQ(mem.states.shape(), (Shape{8, cfg.d_model}));
  EXPECT_EQ(mem.width, Col{8});
}

TEST(EncoderTest, DeterministicForSameSeed) {
  const ModelConfig cfg = ModelConfig::test_scale();
  const Seq2SeqModel a(cfg), b(cfg);
  const PackedBatch batch = one_request(4, cfg, 3);
  EXPECT_EQ(max_abs_diff(a.encode(batch, {}).states, b.encode(batch, {}).states),
            0.0f);
}

TEST(EncoderTest, OutputIsLayerNormalized) {
  // Post-LN architecture: each output row has ~zero mean, ~unit variance.
  const ModelConfig cfg = ModelConfig::test_scale();
  const Seq2SeqModel model(cfg);
  const Tensor y = model.encode(one_request(6, cfg, 8), {}).states;
  for (Index i = 0; i < 6; ++i) {
    float mean = 0.0f;
    for (Index j = 0; j < cfg.d_model; ++j) mean += y.at(i, j);
    mean /= static_cast<float>(cfg.d_model);
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
  }
}

TEST(ModelConfigTest, ValidateCatchesBadConfigs) {
  ModelConfig cfg = ModelConfig::test_scale();
  cfg.validate();  // baseline ok
  cfg.d_model = 30;
  cfg.n_heads = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // 30 % 4 != 0
  cfg = ModelConfig::test_scale();
  cfg.vocab_size = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ModelConfig::test_scale();
  cfg.n_encoder_layers = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ModelConfigTest, PaperScaleIsValid) {
  ModelConfig::paper_scale().validate();
  EXPECT_EQ(ModelConfig::paper_scale().d_ff, 3072);
  EXPECT_EQ(ModelConfig::paper_scale().n_heads, 8);
  EXPECT_EQ(ModelConfig::paper_scale().n_encoder_layers, 3);
  EXPECT_EQ(ModelConfig::paper_scale().n_decoder_layers, 3);
  EXPECT_EQ(ModelConfig::paper_scale().max_len, 400);
}

}  // namespace
}  // namespace tcb
