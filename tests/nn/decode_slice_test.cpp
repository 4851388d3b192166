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

#include <algorithm>
#include <atomic>
#include <bit>
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

TEST_F(DecodeSliceTest, SplicedCohortsAtChunkBoundariesMatchSoloBitwise) {
  // Cohorts sized around the encoder's row chunks (kEncoderChunkRows rows at
  // least, at most parallelism() chunks): 2 rows, fewer than the pool has
  // threads; 13 rows, which 4 chunks do not divide evenly; 17 and 27.
  // Requests of one cohort share id / 10 and are spliced together.
  const auto reqs = make_requests(4, 3, 30, cfg_, 41);
  const SlottedConcatBatcher batcher(/*slot_len=*/30);
  const auto built = batcher.build(reqs, Row{2}, Col{60});
  ASSERT_TRUE(built.leftover.empty());
  const DecodeOptions opts = serving_options(AttentionMode::kSlotted);
  InferenceOptions enc;
  enc.mode = opts.mode;
  std::vector<Request> late;
  const std::vector<std::vector<Index>> cohorts = {{2}, {5, 8}, {17}, {9, 9, 9}};
  for (std::size_t c = 0; c < cohorts.size(); ++c)
    for (std::size_t i = 0; i < cohorts[c].size(); ++i) {
      auto one = make_requests(1, cohorts[c][i], cohorts[c][i], cfg_,
                               43 + 7 * c + i,
                               static_cast<RequestId>(100 + 10 * c + i));
      late.push_back(std::move(one.front()));
    }
  const DecodeRecord batched = run_session(
      model_, model_.encode(pack_batch(built.plan, reqs), enc), opts, late,
      [](DecodeSession& session, const DecodeStepOutcome& outcome,
         std::vector<Request>& pending) {
        for (const SlotRelease& rel : outcome.released) {
          if (pending.empty()) return;
          const RequestId key = pending.front().id / 10;
          std::vector<Request> cohort;
          while (!pending.empty() && pending.front().id / 10 == key) {
            cohort.push_back(pending.front());
            pending.erase(pending.begin());
          }
          session.splice(rel.row, rel.slot, rel.begin, rel.width, cohort);
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


/// One encode geometry: a single request of `tokens` tokens, or (when
/// `slot_len` > 0) a slotted 8 x 100 batch with padding in every row.
struct EncodeCase {
  Index tokens;
  Index slot_len;
};

void PrintTo(const EncodeCase& c, std::ostream* os) {
  if (c.slot_len > 0)
    *os << "slotted8x100_z" << c.slot_len;
  else
    *os << "T" << c.tokens;
}

class EncodeRowSplitTest : public ::testing::TestWithParam<EncodeCase> {};

// Seq2SeqModel::encode against the same encode run inside a one-chunk
// region, where every op it nests runs inline on the calling thread — the
// TCB_THREADS=1 execution. Under TCB_THREADS=4 the plain call splits its
// rows across the pool (kEncoderChunkRows at least per chunk), so the
// token counts straddle the chunk boundaries.
TEST_P(EncodeRowSplitTest, MatchesSerialEncodeBitwise) {
  static const Seq2SeqModel model{ModelConfig{}};
  const EncodeCase c = GetParam();
  PackedBatch packed;
  InferenceOptions opts;
  if (c.slot_len > 0) {
    const auto reqs = make_requests(40, 3, c.slot_len, model.config(), 53);
    const SlottedConcatBatcher batcher(c.slot_len);
    const auto built = batcher.build(reqs, Row{8}, Col{100});
    ASSERT_TRUE(built.leftover.empty());
    ASSERT_LT(built.plan.used_tokens(), 800) << "the batch needs padding";
    packed = pack_batch(built.plan, reqs);
    opts.mode = AttentionMode::kSlotted;
  } else {
    const auto reqs = make_requests(1, c.tokens, c.tokens, model.config(), 59);
    BatchPlan plan;
    plan.scheme = Scheme::kConcatPure;
    plan.row_capacity = c.tokens;
    RowLayout row;
    row.width = c.tokens;
    row.segments.push_back(Segment{reqs[0].id, 0, c.tokens, 0});
    plan.rows.push_back(row);
    packed = pack_batch(plan, reqs);
  }
  const EncoderMemory split = model.encode(packed, opts);
  EncoderMemory serial;
  parallel_for(1, [&](std::size_t, std::size_t) {
    serial = model.encode(packed, opts);
  });
  ASSERT_EQ(split.states.shape(), serial.states.shape());
  EXPECT_TRUE(std::equal(split.states.data().begin(), split.states.data().end(),
                         serial.states.data().begin(),
                         [](float a, float b) {
                           return std::bit_cast<std::uint32_t>(a) ==
                                  std::bit_cast<std::uint32_t>(b);
                         }))
      << "row-split encode differs from the serial encode (pool parallelism "
      << ThreadPool::global().parallelism() << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncodeRowSplitTest,
    ::testing::Values(EncodeCase{1, 0}, EncodeCase{3, 0}, EncodeCase{4, 0},
                      EncodeCase{5, 0}, EncodeCase{17, 0}, EncodeCase{64, 0},
                      EncodeCase{65, 0}, EncodeCase{0, 20}));

}  // namespace
}  // namespace tcb
