// Sliced decode at the default model config (ModelConfig{}: d_model 128,
// d_ff 512, vocab 1024). DecodeSession::step() cuts the active tracks into
// slices of whole attention groups and runs each slice through the whole
// step on one thread (DESIGN.md §15). Nothing about that may show in the
// numbers: every request's tokens AND every step's logits must be bitwise
// what the request produces decoded alone — slotted and pure concat, with
// and without mid-batch splices.
//
// ctest runs this binary twice, with TCB_THREADS=1 (one slice holding every
// track, so every tiled GEMM spans all rows) and with TCB_THREADS=4 (several
// slices of a few rows each). A solo decode is a single slice of one row
// either way, so both runs matching it is the 1-thread == 4-thread
// equivalence. The batched encodes take the blocked GEMM path and the solo
// encodes the tiled one, so the match also crosses the two paths.
//
// The binary also replaces the global operator new with a counting one to
// pin the allocation-free property: after warm-up, a step makes no heap
// allocation on any thread other than the coordinating one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "batching/concat_batcher.hpp"
#include "batching/packed_batch.hpp"
#include "batching/slotted_batcher.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_off_coordinator_allocs{0};
thread_local bool tl_coordinator = false;

}  // namespace

// Both sides out of line: inlined into a call site, gcc pairs the malloc()
// or free() it sees there with the operator it replaced and warns about a
// mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed) && !tl_coordinator)
    g_off_coordinator_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tcb {
namespace {

std::vector<Request> make_requests(std::size_t count, Index min_len,
                                   Index max_len, const ModelConfig& cfg,
                                   std::uint64_t seed,
                                   RequestId first_id = 0) {
  Rng rng(seed);
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.id = first_id + static_cast<RequestId>(i);
    r.length = rng.uniform_int(min_len, max_len);
    for (Index t = 0; t < r.length; ++t)
      r.tokens.push_back(rng.uniform_int(kFirstWordToken, cfg.vocab_size - 1));
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// Per request: the logits of every step it was active in, and its output.
struct DecodeRecord {
  std::map<RequestId, std::vector<std::vector<float>>> logits;
  std::map<RequestId, std::vector<Index>> outputs;
};

/// Called after every step with the step's outcome; may splice.
using AfterStep = void (*)(DecodeSession&, const DecodeStepOutcome&,
                           std::vector<Request>&);

DecodeRecord run_session(const Seq2SeqModel& model, EncoderMemory memory,
                         const DecodeOptions& opts,
                         std::vector<Request> late = {},
                         AfterStep after = nullptr) {
  DecodeRecord rec;
  DecodeSession session(model, std::move(memory), opts);
  while (!session.done()) {
    std::vector<std::size_t> active;
    for (std::size_t t = 0; t < session.tracks().size(); ++t)
      if (!session.tracks()[t].finished) active.push_back(t);
    const DecodeStepOutcome outcome = session.step();
    for (const std::size_t t : active) {
      const auto row = session.step_logits(t);
      EXPECT_EQ(row.size(), static_cast<std::size_t>(model.config().vocab_size));
      rec.logits[session.tracks()[t].request_id].emplace_back(row.begin(),
                                                              row.end());
    }
    if (after != nullptr) after(session, outcome, late);
  }
  EXPECT_TRUE(late.empty()) << "not every late request found a slot";
  const DecodeResult result = session.take_result();
  rec.outputs.insert(result.outputs.begin(), result.outputs.end());
  return rec;
}

/// One request decoded alone: its own single-segment pure-concat batch.
DecodeRecord decode_alone(const Seq2SeqModel& model, const Request& req,
                          DecodeOptions opts) {
  BatchPlan plan;
  plan.scheme = Scheme::kConcatPure;
  plan.row_capacity = req.length;
  RowLayout row;
  row.width = req.length;
  row.segments.push_back(Segment{req.id, 0, req.length, 0});
  plan.rows.push_back(row);
  InferenceOptions enc;
  enc.mode = AttentionMode::kPureConcat;
  opts.mode = AttentionMode::kPureConcat;
  return run_session(model, model.encode(pack_batch(plan, {req}), enc), opts);
}

void expect_matches_solo(const Seq2SeqModel& model, const DecodeRecord& batched,
                         const std::vector<Request>& reqs,
                         const DecodeOptions& opts) {
  for (const Request& req : reqs) {
    const DecodeRecord alone = decode_alone(model, req, opts);
    ASSERT_TRUE(batched.outputs.contains(req.id)) << "request " << req.id;
    EXPECT_EQ(batched.outputs.at(req.id), alone.outputs.at(req.id))
        << "request " << req.id << " tokens";
    const auto& got = batched.logits.at(req.id);
    const auto& want = alone.logits.at(req.id);
    ASSERT_EQ(got.size(), want.size()) << "request " << req.id << " steps";
    for (std::size_t s = 0; s < got.size(); ++s)
      EXPECT_TRUE(got[s] == want[s])
          << "request " << req.id << " logits differ at step " << s;
  }
}

DecodeOptions serving_options(AttentionMode mode) {
  DecodeOptions opts;  // the serving defaults TcbConfig maps to
  opts.mode = mode;
  opts.max_steps = 32;
  opts.cap_at_source_length = true;
  opts.early_memory_cleaning = true;
  return opts;
}

class DecodeSliceTest : public ::testing::Test {
 protected:
  DecodeSliceTest() : model_(cfg_) {}
  ModelConfig cfg_;  // the default model
  Seq2SeqModel model_;
};

TEST_F(DecodeSliceTest, SlottedBatchMatchesSoloBitwise) {
  const auto reqs = make_requests(24, 3, 20, cfg_, 17);
  const SlottedConcatBatcher batcher(/*slot_len=*/20);
  const auto built = batcher.build(reqs, Row{6}, Col{100});
  ASSERT_TRUE(built.leftover.empty());
  const DecodeOptions opts = serving_options(AttentionMode::kSlotted);
  InferenceOptions enc;
  enc.mode = opts.mode;
  const DecodeRecord batched =
      run_session(model_, model_.encode(pack_batch(built.plan, reqs), enc),
                  opts);
  expect_matches_solo(model_, batched, reqs, opts);
}

TEST_F(DecodeSliceTest, PureConcatBatchMatchesSoloBitwise) {
  // Two rows of short requests: each row is one attention group of more
  // than a dozen tracks, so even a multi-slice step runs blocked GEMMs.
  const auto reqs = make_requests(28, 3, 10, cfg_, 23);
  const ConcatBatcher batcher;
  const auto built = batcher.build(reqs, Row{2}, Col{100});
  ASSERT_TRUE(built.leftover.empty());
  const DecodeOptions opts = serving_options(AttentionMode::kPureConcat);
  InferenceOptions enc;
  const DecodeRecord batched =
      run_session(model_, model_.encode(pack_batch(built.plan, reqs), enc),
                  opts);
  expect_matches_solo(model_, batched, reqs, opts);
}

TEST_F(DecodeSliceTest, SplicedBatchMatchesSoloBitwise) {
  const auto reqs = make_requests(16, 3, 12, cfg_, 29);
  const SlottedConcatBatcher batcher(/*slot_len=*/12);
  const auto built = batcher.build(reqs, Row{4}, Col{48});
  ASSERT_TRUE(built.leftover.empty());
  const DecodeOptions opts = serving_options(AttentionMode::kSlotted);
  InferenceOptions enc;
  enc.mode = opts.mode;
  const auto late = make_requests(6, 3, 12, cfg_, 31, /*first_id=*/100);
  const DecodeRecord batched = run_session(
      model_, model_.encode(pack_batch(built.plan, reqs), enc), opts, late,
      [](DecodeSession& session, const DecodeStepOutcome& outcome,
         std::vector<Request>& pending) {
        for (const SlotRelease& rel : outcome.released) {
          if (pending.empty()) return;
          if (pending.front().length > rel.width) continue;
          session.splice(rel.row, rel.slot, rel.begin, rel.width,
                         {pending.front()});
          pending.erase(pending.begin());
        }
      });
  expect_matches_solo(model_, batched, reqs, opts);
  expect_matches_solo(model_, batched, late, opts);
}

TEST_F(DecodeSliceTest, WarmStepAllocatesNothingOnPoolThreads) {
  tl_coordinator = true;
  const auto reqs = make_requests(24, 3, 20, cfg_, 37);
  const SlottedConcatBatcher batcher(/*slot_len=*/20);
  const auto built = batcher.build(reqs, Row{6}, Col{100});
  ASSERT_TRUE(built.leftover.empty());
  const DecodeOptions opts = serving_options(AttentionMode::kSlotted);
  InferenceOptions enc;
  enc.mode = opts.mode;
  const EncoderMemory memory =
      model_.encode(pack_batch(built.plan, reqs), enc);

  // Warm-up: a whole identical session grows every thread's arena and
  // settles the GEMM blockings.
  for (int pass = 0; pass < 2; ++pass) {
    DecodeSession warm(model_, memory, opts);
    while (!warm.done()) (void)warm.step();
  }

  DecodeSession session(model_, memory, opts);
  std::uint64_t steps = 0;
  while (!session.done()) {
    g_counting = true;
    (void)session.step();
    g_counting = false;
    ++steps;
  }
  EXPECT_GT(steps, 1u);
  EXPECT_EQ(g_off_coordinator_allocs.load(), 0u)
      << "decode steps allocated on pool threads (pool parallelism "
      << ThreadPool::global().parallelism() << ")";
}

}  // namespace
}  // namespace tcb
