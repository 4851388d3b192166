// Soak test of steady-state memory on the served path: batch after batch
// through TcbSystem::serve, run-to-completion and continuous, at the default
// model config. Once the first serves have warmed every thread's Workspace
// arena, further serves of the same traffic must not allocate a single new
// arena chunk nor reserve one more byte. The arena used to insert a fresh
// chunk on every overflow instead of reusing the ones parked behind the
// active chunk, so each batch leaked its overflow footprint.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/tcb.hpp"
#include "tensor/workspace.hpp"

namespace tcb {
namespace {

TcbConfig soak_config(bool continuous) {
  TcbConfig cfg;  // default ModelConfig: d_model 128, d_ff 512
  cfg.sched.batch_rows = 8;
  cfg.sched.row_capacity = 100;
  cfg.max_decode_steps = 8;
  cfg.continuous = continuous;
  return cfg;
}

std::vector<Request> soak_trace(const TcbConfig& cfg) {
  WorkloadConfig w;
  w.rate = 400;
  w.duration = 0.25;
  w.min_len = 3;
  w.max_len = 60;
  w.mean_len = 20;
  w.len_variance = 20;
  w.deadline_slack_min = 50.0;  // lax: nothing expires
  w.deadline_slack_max = 60.0;
  w.seed = 3;
  w.with_tokens = true;
  w.vocab_size = cfg.model.vocab_size;
  return generate_trace(w);
}

class ServeSoakTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServeSoakTest, ArenasStayFlatAfterWarmUp) {
  const TcbConfig cfg = soak_config(GetParam());
  const TcbSystem tcb(cfg);
  const auto trace = soak_trace(cfg);

  std::size_t batches = 0;
  for (int pass = 0; pass < 2; ++pass) batches += tcb.serve(trace).batches;
  const std::uint64_t chunks = Workspace::total_chunk_allocs();
  const std::size_t reserved = Workspace::total_reserved_bytes();

  for (int pass = 0; pass < 3; ++pass) {
    const ServeResult result = tcb.serve(trace);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.responses.size(), trace.size());
    batches += result.batches;
    EXPECT_EQ(Workspace::total_chunk_allocs(), chunks) << "pass " << pass;
    EXPECT_EQ(Workspace::total_reserved_bytes(), reserved) << "pass " << pass;
  }
  EXPECT_GE(batches, 10u) << "trace too small to soak anything";
}

INSTANTIATE_TEST_SUITE_P(Modes, ServeSoakTest, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "Continuous"
                                                         : "RunToCompletion");
                         });

}  // namespace
}  // namespace tcb
