// Integration tests for the serving engine (src/serve/engine).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "baselines/baseline_engines.hpp"
#include "kv_snapshot.hpp"
#include "serve/engine.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::serve {
namespace {

std::vector<std::int32_t> prompt_ids(std::size_t n, std::int32_t base = 3) {
  std::vector<std::int32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<std::int32_t>((base + 7 * i) % 251);
  }
  return ids;
}

/// Dense fp16 engine on the tiny model, small pages.
EngineConfig tiny_dense_config() {
  EngineConfig cfg = baselines::vllm_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 8;
  cfg.tiling = {8, 8};
  cfg.pool_pages = 256;
  return cfg;
}

/// LServe-flavoured engine whose sparsity is inactive at short context:
/// budget and Λ window cover the whole sequence, so outputs must equal the
/// dense engine's exactly.
EngineConfig tiny_covering_lserve_config() {
  EngineConfig cfg = tiny_dense_config();
  cfg.streaming_fraction = 0.5;
  cfg.streaming = {/*sink_tokens=*/64, /*local_tokens=*/512};
  cfg.dynamic_decode = true;
  cfg.hierarchical = true;
  cfg.selector.token_budget = 4096;
  cfg.reuse_interval = 4;
  cfg.dense_pages.logical_page_size = 4;
  return cfg;
}

TEST(Engine, DeterministicGeneration) {
  Engine a(tiny_dense_config());
  Engine b(tiny_dense_config());
  const auto ids = prompt_ids(24);
  const auto sa = a.create_sequence();
  const auto sb = b.create_sequence();
  const auto out_a = a.generate(sa, ids, 6);
  const auto out_b = b.generate(sb, ids, 6);
  EXPECT_EQ(out_a, out_b);
}

TEST(Engine, IncrementalPrefillMatchesMonolithic) {
  // Driving begin_prefill/prefill_chunk/finish_prefill by hand — with an
  // uneven chunk schedule — must be bit-identical to prefill(), including
  // the decode steps that follow.
  Engine mono(tiny_dense_config());
  Engine inc(tiny_dense_config());
  const auto ids = prompt_ids(23);
  const auto sm = mono.create_sequence();
  const auto si = inc.create_sequence();

  const std::int32_t first_mono =
      mono.prefill(sm, std::span<const std::int32_t>(ids));

  inc.begin_prefill(si, ids.size());
  std::size_t pos = 0;
  for (const std::size_t chunk : {7u, 9u, 1u, 6u}) {
    const std::size_t left = inc.prefill_chunk(
        si, std::span<const std::int32_t>(ids.data() + pos, chunk));
    pos += chunk;
    EXPECT_EQ(left, ids.size() - pos);
  }
  const std::int32_t first_inc = inc.finish_prefill(si);

  EXPECT_EQ(first_inc, first_mono);
  std::int32_t tm = first_mono;
  std::int32_t ti = first_inc;
  for (int s = 0; s < 6; ++s) {
    tm = mono.decode(sm, tm);
    ti = inc.decode(si, ti);
    EXPECT_EQ(ti, tm) << "diverged at decode step " << s;
  }
  EXPECT_EQ(mono.stats().prefill_tokens, inc.stats().prefill_tokens);
}

TEST(Engine, PooledPrefillChunkBitIdenticalToSerial) {
  // Pooled prefill splits each chunk's linears into row blocks and its
  // attention into (query head, q-tile) tasks; every row is still computed
  // whole inside one task. On the served preset (64-row q-tiles), chunks of
  // 48/100/37/130 rows start and end mid-tile, and the K/V pages, the
  // readout and the decode that follows must match the serial path at 2
  // and 8 threads.
  const auto ids = prompt_ids(700);
  const auto run = [&](std::size_t threads, std::vector<float>* kv) {
    Engine engine(baselines::lserve_config(model::tiny()));
    ThreadPool pool(threads);
    const auto seq = engine.create_sequence();
    engine.begin_prefill(seq, ids.size());
    const std::size_t chunks[] = {48, 100, 37, 130};
    for (std::size_t pos = 0, i = 0; pos < ids.size(); ++i) {
      const std::size_t n = std::min(chunks[i % 4], ids.size() - pos);
      engine.prefill_chunk(
          seq, std::span<const std::int32_t>(ids.data() + pos, n),
          threads > 1 ? &pool : nullptr);
      pos += n;
    }
    std::vector<std::int32_t> out{engine.finish_prefill(seq)};
    *kv = test::kv_snapshot(engine, seq);
    for (int s = 0; s < 4; ++s) out.push_back(engine.decode(seq, out.back()));
    engine.release_sequence(seq);
    EXPECT_EQ(engine.total_pages_in_use(), 0u);
    return out;
  };
  std::vector<float> serial_kv;
  const auto serial = run(1, &serial_kv);
  for (const std::size_t threads : {2, 8}) {
    std::vector<float> pooled_kv;
    EXPECT_EQ(run(threads, &pooled_kv), serial) << threads << " threads";
    ASSERT_EQ(pooled_kv.size(), serial_kv.size());
    EXPECT_EQ(std::memcmp(pooled_kv.data(), serial_kv.data(),
                          serial_kv.size() * sizeof(float)),
              0)
        << threads << " threads";
  }
}

TEST(Engine, EstimateRequestPagesBoundsActualUsage) {
  // The admission-control estimate must upper-bound what a request really
  // allocates, for both the dense and the streaming pool.
  Engine engine(tiny_covering_lserve_config());
  const std::size_t prompt_len = 40;
  const std::size_t new_tokens = 8;
  const PageDemand est =
      engine.estimate_request_pages(prompt_len + new_tokens);
  const auto seq = engine.create_sequence();
  engine.generate(seq, prompt_ids(prompt_len), new_tokens);
  EXPECT_LE(engine.dense_allocator().pages_in_use(), est.dense_pages);
  EXPECT_LE(engine.stream_allocator().pages_in_use(), est.stream_pages);
  EXPECT_LE(engine.total_pages_in_use(), est.total());
  EXPECT_EQ(engine.decode_step_page_bound(),
            engine.config().model.layers * engine.config().model.kv_heads);
  engine.release_sequence(seq);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
}

TEST(Engine, PrefillThenDecodeMatchesLongerPrefill) {
  // Causal consistency: decoding token t after prefilling [0, t) must give
  // the same next token as prefilling [0, t].
  Engine a(tiny_dense_config());
  Engine b(tiny_dense_config());
  const auto ids = prompt_ids(20);

  const auto sa = a.create_sequence();
  const std::int32_t via_prefill =
      a.prefill(sa, std::span<const std::int32_t>(ids));

  const auto sb = b.create_sequence();
  const std::vector<std::int32_t> shorter(ids.begin(), ids.end() - 1);
  b.prefill(sb, shorter);
  const std::int32_t via_decode = b.decode(sb, ids.back());

  EXPECT_EQ(via_prefill, via_decode);
}

TEST(Engine, CoveringSparsityMatchesDenseExactly) {
  // When budget >= context and the Λ window covers everything, LServe's
  // pathways reduce to dense attention: generated tokens must coincide.
  Engine dense(tiny_dense_config());
  Engine sparse(tiny_covering_lserve_config());
  const auto ids = prompt_ids(40);
  const auto sd = dense.create_sequence();
  const auto ss = sparse.create_sequence();
  const auto out_d = dense.generate(sd, ids, 8);
  const auto out_s = sparse.generate(ss, ids, 8);
  EXPECT_EQ(out_d, out_s);
}

TEST(Engine, DynamicDecodeBoundsVisitedTokens) {
  EngineConfig cfg = tiny_dense_config();
  cfg.dynamic_decode = true;
  cfg.selector.token_budget = 16;  // 2 pages of 8
  cfg.reuse_interval = 1;
  Engine engine(cfg);
  const auto ids = prompt_ids(64);
  const auto seq = engine.create_sequence();
  engine.generate(seq, ids, 4);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.decode_steps, 3u);
  // Per decode step per layer per kv head: at most budget tokens.
  const std::size_t max_tokens = stats.decode_steps * 2 /*layers*/ *
                                 2 /*kv heads*/ * 24 /*budget + partials*/;
  EXPECT_LE(stats.tokens_visited, max_tokens);
}

TEST(Engine, ReusableSelectorReducesSelectorRuns) {
  EngineConfig cfg = tiny_covering_lserve_config();
  cfg.selector.token_budget = 16;  // force pruning
  cfg.reuse_interval = 4;
  Engine engine(cfg);
  const auto ids = prompt_ids(64);
  const auto seq = engine.create_sequence();
  engine.generate(seq, ids, 9);  // 8 decode steps
  const EngineStats& stats = engine.stats();
  EXPECT_GT(stats.selector_reuses, stats.selector_runs);
}

TEST(Engine, ReleaseSequenceFreesAllPages) {
  Engine engine(tiny_covering_lserve_config());
  const auto ids = prompt_ids(48);
  const auto seq = engine.create_sequence();
  engine.generate(seq, ids, 4);
  EXPECT_GT(engine.dense_allocator().pages_in_use(), 0u);
  engine.release_sequence(seq);
  EXPECT_EQ(engine.dense_allocator().pages_in_use(), 0u);
  EXPECT_EQ(engine.stream_allocator().pages_in_use(), 0u);
}

TEST(Engine, SequenceSlotsAreRecycled) {
  Engine engine(tiny_dense_config());
  const auto s0 = engine.create_sequence();
  engine.release_sequence(s0);
  const auto s1 = engine.create_sequence();
  EXPECT_EQ(s0, s1);
}

TEST(Engine, QuantizedKvReducesDeviceBytes) {
  EngineConfig fp_cfg = tiny_dense_config();
  EngineConfig q_cfg = tiny_dense_config();
  q_cfg.dense_pages.dtype = num::KvDtype::kInt4;
  Engine fp(fp_cfg), q4(q_cfg);
  const auto ids = prompt_ids(64);
  const auto sf = fp.create_sequence();
  const auto sq = q4.create_sequence();
  fp.prefill(sf, std::span<const std::int32_t>(ids));
  q4.prefill(sq, std::span<const std::int32_t>(ids));
  EXPECT_LT(q4.kv_device_bytes(), 0.5 * fp.kv_device_bytes());
}

TEST(Engine, StreamingHeadsSaveMemoryAtLongContext) {
  EngineConfig dense_cfg = tiny_dense_config();
  EngineConfig duo_cfg = tiny_dense_config();
  duo_cfg.streaming_fraction = 0.5;
  duo_cfg.streaming = {/*sink=*/8, /*local=*/16};
  Engine dense(dense_cfg), duo(duo_cfg);
  const auto ids = prompt_ids(192);
  const auto sd = dense.create_sequence();
  const auto su = duo.create_sequence();
  dense.prefill(sd, std::span<const std::int32_t>(ids));
  duo.prefill(su, std::span<const std::int32_t>(ids));
  EXPECT_LT(duo.kv_device_bytes(), 0.75 * dense.kv_device_bytes());
}

TEST(Engine, CalibrationPartitionsAtConfiguredFraction) {
  EngineConfig cfg = tiny_covering_lserve_config();
  cfg.streaming = {/*sink=*/16, /*local=*/64};  // keep calibration cheap
  Engine engine(cfg);
  const auto gates = engine.calibrate_head_kinds();
  ASSERT_EQ(gates.size(), 2u * 2u);  // layers x kv_heads
  std::size_t streaming = 0;
  for (auto k : engine.head_kinds()) {
    streaming += (k == kv::HeadKind::kStreaming);
  }
  EXPECT_EQ(streaming, 2u);
}

TEST(Engine, SetHeadKindsOverridesPartition) {
  Engine engine(tiny_dense_config());
  std::vector<kv::HeadKind> kinds(4, kv::HeadKind::kStreaming);
  engine.set_head_kinds(kinds);
  for (auto k : engine.head_kinds()) {
    EXPECT_EQ(k, kv::HeadKind::kStreaming);
  }
}

TEST(BaselinePresets, DifferInTheExpectedKnobs) {
  const auto m = model::tiny();
  EXPECT_EQ(baselines::vllm_config(m).dense_pages.dtype,
            num::KvDtype::kFp16);
  EXPECT_EQ(baselines::qserve_config(m).dense_pages.dtype,
            num::KvDtype::kInt4);
  EXPECT_FALSE(baselines::vllm_config(m).dynamic_decode);
  EXPECT_TRUE(baselines::quest_config(m).dynamic_decode);
  EXPECT_FALSE(baselines::quest_config(m).hierarchical);
  EXPECT_TRUE(baselines::lserve_config(m).hierarchical);
  EXPECT_EQ(baselines::quest_config(m).dense_pages.page_size, 16u);
  EXPECT_EQ(baselines::lserve_config(m).dense_pages.page_size, 64u);
  EXPECT_EQ(baselines::lserve_config(m).dense_pages.logical_page_size, 16u);
  EXPECT_TRUE(baselines::minference_config(m).dynamic_prefill);
  EXPECT_DOUBLE_EQ(baselines::duo_attention_config(m).streaming_fraction,
                   0.5);
}

}  // namespace
}  // namespace lserve::serve
