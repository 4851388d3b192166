// Early memory cleaning must return K/V storage to the allocator (paper
// §4.2.2), not just stop counting it. One long-lived slotted DecodeSession
// splices a fresh request into every slot it releases, so tracks keep
// retiring while about a batch's worth stay live; the heap in use, and the
// session's track table, must stay flat however many requests have passed
// through.
//
// Its own binary because it replaces the global operator new with one that
// counts the bytes currently allocated through it.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "batching/packed_batch.hpp"
#include "batching/slotted_batcher.hpp"
#include "nn/model.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

}  // namespace

// Out of line: inlined into a call site, gcc pairs the malloc() or free() it
// sees there with the operator it replaced and warns about a mismatched
// deallocation.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace tcb {
namespace {

Request make_request(RequestId id, Index length, Rng& rng,
                     const ModelConfig& cfg) {
  Request r;
  r.id = id;
  r.length = length;
  for (Index t = 0; t < length; ++t)
    r.tokens.push_back(rng.uniform_int(kFirstWordToken, cfg.vocab_size - 1));
  return r;
}

TEST(KvReleaseTest, SteadySplicingKeepsHeapFlat) {
  const ModelConfig cfg = ModelConfig::test_scale();
  const Seq2SeqModel model(cfg);
  Rng rng(29);
  RequestId next_id = 0;

  // 8 rows x 100 columns in slots of 20, filled with 3-20-token requests.
  constexpr Index kSlotLen = 20;
  std::vector<Request> reqs;
  for (int i = 0; i < 40; ++i)
    reqs.push_back(make_request(next_id++, rng.uniform_int(3, kSlotLen), rng,
                                cfg));
  const SlottedConcatBatcher batcher(kSlotLen);
  const auto built = batcher.build(reqs, Row{8}, Col{100});
  ASSERT_TRUE(built.leftover.empty());

  DecodeOptions opts;
  opts.mode = AttentionMode::kSlotted;
  opts.max_steps = 32;
  opts.cap_at_source_length = true;
  opts.early_memory_cleaning = true;
  InferenceOptions enc;
  enc.mode = opts.mode;
  DecodeSession session(model, model.encode(pack_batch(built.plan, reqs), enc),
                        opts);

  // What one spliced track reserves for its K/V: every decoder layer holds
  // K and V of (step cap x d_model) floats.
  const auto reserved_kv = [&](const Request& req) {
    const Index cap = std::min(opts.max_steps, req.length);
    return static_cast<double>(cfg.n_decoder_layers) * 2.0 *
           static_cast<double>(cap * cfg.d_model) * sizeof(float);
  };

  constexpr std::size_t kWarmup = 1000;
  constexpr std::size_t kSplices = 11000;
  std::size_t splices = 0;
  std::size_t peak_tracks = 0;
  std::int64_t warm_bytes = 0;
  double reserved_after_warmup = 0.0;
  while (splices < kSplices) {
    ASSERT_FALSE(session.done());
    const DecodeStepOutcome outcome = session.step();
    for (const SlotRelease& rel : outcome.released) {
      if (splices == kSplices) break;
      Request req =
          make_request(next_id++, rng.uniform_int(3, rel.width), rng, cfg);
      if (splices >= kWarmup) reserved_after_warmup += reserved_kv(req);
      session.splice(rel.row, rel.slot, rel.begin, rel.width, {req});
      peak_tracks = std::max(peak_tracks, session.tracks().size());
      if (++splices == kWarmup)
        warm_bytes = g_live_bytes.load(std::memory_order_relaxed);
    }
  }
  const double growth = static_cast<double>(
      g_live_bytes.load(std::memory_order_relaxed) - warm_bytes);
  const double measured = static_cast<double>(kSplices - kWarmup);

  // A retired track's K/V must not stay allocated: per splice, the heap may
  // grow by per-request bookkeeping (the emitted tokens kept for the
  // result) but by well under one track's reserved K/V.
  EXPECT_LT(growth / measured, 0.25 * reserved_after_warmup / measured)
      << "heap grew " << growth / 1024.0 << " KiB over " << measured
      << " splices";
  // Splices reuse the handles their released slots freed, so the track
  // table never outgrows the batch's formation-time tracks.
  EXPECT_LE(peak_tracks, reqs.size());

  while (!session.done()) (void)session.step();
  const DecodeResult result = session.take_result();
  EXPECT_EQ(result.outputs.size(), static_cast<std::size_t>(next_id));
}

}  // namespace
}  // namespace tcb
