// Randomized stress / failure-injection tests: long random operation
// sequences against the stateful components (allocator, caches, engine,
// reusable selector), checking conservation invariants after every step.
// Random scheduler drains live in drain_oracle_test.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/baseline_engines.hpp"
#include "kv/two_way_cache.hpp"
#include "numeric/rng.hpp"
#include "serve/engine.hpp"
#include "sparse/reusable_selector.hpp"

namespace lserve {
namespace {

TEST(AllocatorFuzz, RandomAllocFreeConservesCounts) {
  kv::PageConfig cfg;
  cfg.page_size = 8;
  cfg.logical_page_size = 8;
  cfg.head_dim = 4;
  kv::PageAllocator alloc(cfg, 4);
  num::Rng rng(123);
  std::vector<kv::PageId> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.next_double() < 0.55) {
      live.push_back(alloc.allocate());
    } else {
      const std::size_t idx = rng.next_below(live.size());
      alloc.release(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(alloc.pages_in_use(), live.size());
    ASSERT_GE(alloc.capacity(), live.size());
  }
  for (kv::PageId id : live) alloc.release(id);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
  EXPECT_GE(alloc.peak_pages_in_use(), 1u);
}

TEST(HeadCacheFuzz, RandomLengthsAlwaysRoundTrip) {
  kv::PageConfig cfg;
  cfg.page_size = 8;
  cfg.logical_page_size = 4;
  cfg.head_dim = 8;
  num::Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    kv::PageAllocator alloc(cfg, 4);
    kv::HeadCache head;
    const std::size_t n = 1 + rng.next_below(200);
    std::vector<std::vector<float>> keys;
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<float> k(8), v(8);
      rng.fill_gaussian(k, 1.0f);
      rng.fill_gaussian(v, 1.0f);
      head.append(alloc, k.data(), v.data());
      keys.push_back(k);
    }
    // Spot-check random positions.
    std::vector<float> out(8);
    for (int probe = 0; probe < 8; ++probe) {
      const std::size_t t = rng.next_below(n);
      head.load_key(alloc, t, out.data());
      for (std::size_t c = 0; c < 8; ++c) {
        ASSERT_FLOAT_EQ(out[c], keys[t][c]) << "trial " << trial;
      }
    }
    head.release(alloc);
    ASSERT_EQ(alloc.pages_in_use(), 0u);
  }
}

TEST(StreamingCacheFuzz, WindowInvariantUnderRandomLengths) {
  kv::PageConfig cfg;
  cfg.page_size = 8;
  cfg.logical_page_size = 8;
  cfg.head_dim = 4;
  cfg.track_kstats = false;
  num::Rng rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    const kv::StreamingConfig sc{
        /*sink_tokens=*/8 * (1 + rng.next_below(3)),
        /*local_tokens=*/8 * (1 + rng.next_below(5))};
    kv::PageAllocator alloc(cfg, 16);
    kv::StreamingHeadCache head;
    const std::size_t n = 50 + rng.next_below(500);
    std::vector<float> k(4, 1.0f), v(4, 2.0f);
    for (std::size_t t = 0; t < n; ++t) head.append(alloc, sc, k.data(),
                                                    v.data());
    // Invariant: retained blocks = sink blocks + enough trailing blocks to
    // cover the local window, and nothing else.
    const auto table = head.index_table();
    const std::size_t sink_blocks = (sc.sink_tokens + 7) / 8;
    std::size_t local_covered = 0;
    for (const auto& e : table) {
      if (e.block < sink_blocks) continue;  // sink page
      const std::size_t begin = e.block * 8;
      const std::size_t end = std::min(begin + 8, n);
      ASSERT_GT(end + sc.local_tokens, n)
          << "retained page fully outside the local window";
      local_covered += end - begin;
    }
    ASSERT_GE(local_covered, std::min<std::size_t>(
                                 sc.local_tokens,
                                 n - std::min(n, sc.sink_tokens)));
    head.release(alloc);
    ASSERT_EQ(alloc.pages_in_use(), 0u);
  }
}

TEST(ReusableSelectorFuzz, ArbitraryStepPatternsNeverReturnStaleSlot) {
  sparse::ReusableSelector sel(5, 4);
  num::Rng rng(99);
  // Each slot's table encodes (slot, chunk) so staleness is detectable.
  for (int step_trial = 0; step_trial < 500; ++step_trial) {
    const std::size_t slot = rng.next_below(5);
    const std::size_t step = rng.next_below(64);
    const auto& table = sel.get(slot, step, {}, [&] {
      return kv::SelectedPageTable{
          {static_cast<kv::PageId>(slot),
           static_cast<std::uint32_t>(step / 4)}};
    });
    ASSERT_EQ(table[0].page, static_cast<kv::PageId>(slot));
    // The cached chunk must match the queried step's chunk.
    ASSERT_EQ(table[0].block, static_cast<std::uint32_t>(step / 4));
  }
}

TEST(EngineFuzz, InterleavedSequencesStayIndependent) {
  serve::EngineConfig cfg = baselines::vllm_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 8;
  cfg.tiling = {8, 8};
  cfg.pool_pages = 1024;

  // Reference: run sequence B alone.
  std::vector<std::int32_t> prompt_b(20);
  for (std::size_t i = 0; i < prompt_b.size(); ++i) {
    prompt_b[i] = static_cast<std::int32_t>((3 * i + 1) % 251);
  }
  serve::Engine solo(cfg);
  const auto solo_seq = solo.create_sequence();
  const auto solo_out = solo.generate(solo_seq, prompt_b, 5);

  // Interleaved: A and B decode turn by turn in one engine.
  serve::Engine shared(cfg);
  std::vector<std::int32_t> prompt_a(31);
  for (std::size_t i = 0; i < prompt_a.size(); ++i) {
    prompt_a[i] = static_cast<std::int32_t>((7 * i + 5) % 251);
  }
  const auto sa = shared.create_sequence();
  const auto sb = shared.create_sequence();
  std::int32_t ta = shared.prefill(sa, prompt_a);
  std::int32_t tb = shared.prefill(sb, prompt_b);
  std::vector<std::int32_t> out_b{tb};
  for (int i = 1; i < 5; ++i) {
    ta = shared.decode(sa, ta);
    tb = shared.decode(sb, tb);
    out_b.push_back(tb);
  }
  EXPECT_EQ(out_b, solo_out) << "sequence B perturbed by sequence A";
}

}  // namespace
}  // namespace lserve
