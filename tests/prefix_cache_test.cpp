// Tests for the radix prefix cache (kv/prefix_cache) and its engine
// integration: bit-exact attach-resume, copy-on-write divergence, and LRU
// eviction under page budgets. Scheduler drains with the cache on — cache
// on ≡ cache off, refcounts across preemption and cancel — are rows of
// drain_oracle_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "serve/engine.hpp"

namespace lserve::serve {
namespace {

std::vector<std::int32_t> prompt_ids(std::size_t n, std::int32_t base = 3) {
  std::vector<std::int32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<std::int32_t>((base + 7 * i) % 251);
  }
  return ids;
}

/// Small-page LServe engine with active sparsity: streaming windows slide
/// and the selector prunes within short prompts.
EngineConfig cache_config(bool cache_on) {
  EngineConfig cfg = baselines::lserve_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 4;
  cfg.tiling = {8, 8};
  cfg.streaming = {/*sink_tokens=*/8, /*local_tokens=*/16};
  cfg.selector.token_budget = 48;
  cfg.reuse_interval = 4;
  cfg.pool_pages = 1024;
  cfg.enable_prefix_cache = cache_on;
  return cfg;
}

std::vector<kv::HeadKind> partition(const Engine& eng, int mode) {
  std::vector<kv::HeadKind> kinds(eng.head_kinds().size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    kinds[i] = mode == 0   ? kv::HeadKind::kDense
               : mode == 1 ? kv::HeadKind::kStreaming
                           : (i % 2 ? kv::HeadKind::kStreaming
                                    : kv::HeadKind::kDense);
  }
  return kinds;
}

/// Reference: fresh cache-off engine, monolithic prefill + greedy decode.
std::vector<std::int32_t> generate_ref(int mode,
                                       std::span<const std::int32_t> prompt,
                                       std::size_t n) {
  Engine eng(cache_config(false));
  eng.set_head_kinds(partition(eng, mode));
  const SequenceId id = eng.create_sequence();
  std::vector<std::int32_t> out = eng.generate(id, prompt, n);
  eng.release_sequence(id);
  return out;
}

/// Cache-on turn: attach whatever the cache has, prefill the suffix, decode
/// `n` tokens, insert the final KV back, release. Returns (output, reused).
struct TurnResult {
  std::vector<std::int32_t> output;
  std::size_t reused = 0;
};

TurnResult run_turn(Engine& eng, std::span<const std::int32_t> prompt,
                    std::size_t n) {
  TurnResult r;
  const SequenceId id = eng.create_sequence();
  r.reused = eng.attach_prefix(id, prompt);
  eng.begin_prefill(id, prompt.size());
  eng.prefill_chunk(id, prompt.subspan(r.reused));
  std::int32_t tok = eng.finish_prefill(id);
  r.output.push_back(tok);
  for (std::size_t i = 1; i < n; ++i) {
    tok = eng.decode(id, tok);
    r.output.push_back(tok);
  }
  // Only the prefilled prompt is cacheable: decode-produced K/V differ
  // numerically from a prefill of the same tokens.
  eng.insert_prefix(id, prompt);
  eng.release_sequence(id);
  return r;
}

class PrefixCacheBitExact : public ::testing::TestWithParam<int> {};

// Three chat turns; every turn must match a cache-off run bit for bit, and
// turns 2/3 must actually reuse cached tokens.
TEST_P(PrefixCacheBitExact, MultiTurnAttachMatchesColdPrefill) {
  const int mode = GetParam();
  Engine eng(cache_config(true));
  eng.set_head_kinds(partition(eng, mode));

  std::vector<std::int32_t> prompt = prompt_ids(45);
  for (int turn = 0; turn < 3; ++turn) {
    const std::vector<std::int32_t> want = generate_ref(mode, prompt, 6);
    const TurnResult got = run_turn(eng, prompt, 6);
    ASSERT_EQ(want, got.output) << "mode " << mode << " turn " << turn;
    if (turn > 0) {
      EXPECT_GT(got.reused, 0u) << "mode " << mode << " turn " << turn;
    }
    // Next turn: history (prompt + full reply) + fresh user tokens.
    prompt.insert(prompt.end(), got.output.begin(), got.output.end());
    const std::vector<std::int32_t> fresh =
        prompt_ids(11, static_cast<std::int32_t>(17 * (turn + 1)));
    prompt.insert(prompt.end(), fresh.begin(), fresh.end());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPartitions, PrefixCacheBitExact,
                         ::testing::Values(0, 1, 2));

// A second conversation that diverges inside a partially-shared page must
// copy-on-write the tail (never mutate shared pages) and still match a
// cold prefill bit for bit.
TEST(PrefixCacheCow, MidPageDivergenceCopiesAndStaysExact) {
  const int mode = 2;
  Engine eng(cache_config(true));
  eng.set_head_kinds(partition(eng, mode));

  // Seed the tree: 21-token prompt (page_size 8 -> partial tail of 5).
  const std::vector<std::int32_t> a = prompt_ids(21);
  run_turn(eng, a, 4);
  const std::size_t cow_seed = eng.prefix_cache()->stats().cow_copies;

  // B shares 18 tokens — two full pages plus 2 tokens into page 2 — then
  // diverges mid-page.
  std::vector<std::int32_t> b(a.begin(), a.begin() + 18);
  const std::vector<std::int32_t> tail = prompt_ids(13, 101);
  b.insert(b.end(), tail.begin(), tail.end());

  const std::vector<std::int32_t> want = generate_ref(mode, b, 4);
  const TurnResult got = run_turn(eng, b, 4);
  EXPECT_EQ(want, got.output);
  EXPECT_GT(got.reused, 0u);
  EXPECT_GT(eng.prefix_cache()->stats().cow_copies, cow_seed);
}

// Insert-time LRU eviction keeps the tree at its page budget without
// corrupting what stays cached.
TEST(PrefixCacheEviction, BudgetHoldsAndSurvivorsStayExact) {
  const int mode = 2;
  EngineConfig cfg = cache_config(true);
  cfg.memory.prefix_cache_pages = 24;
  Engine eng(cfg);
  eng.set_head_kinds(partition(eng, mode));

  // Five distinct conversations: each needs ~3 blocks x 4 head slots, so
  // the 24-page budget forces LRU eviction of the oldest trees.
  for (int i = 0; i < 5; ++i) {
    const std::vector<std::int32_t> prompt =
        prompt_ids(21, static_cast<std::int32_t>(23 * i + 1));
    run_turn(eng, prompt, 3);
    EXPECT_LE(eng.prefix_cache_pages_held(), 24u);
  }
  EXPECT_GT(eng.prefix_cache()->stats().evictions, 0u);

  // The most recent conversation (LRU survivor) still replays exactly.
  const std::vector<std::int32_t> prompt = prompt_ids(21, 23 * 4 + 1);
  const std::vector<std::int32_t> want = generate_ref(mode, prompt, 3);
  const TurnResult got = run_turn(eng, prompt, 3);
  EXPECT_EQ(want, got.output);
}

}  // namespace
}  // namespace lserve::serve
