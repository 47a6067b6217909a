// Tests for chunked prefill: the page walk on a chunk's rows
// (attn::fused_chunked_prefill) and its engine wiring.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "attn/dense_attention.hpp"
#include "attn/fused_attention.hpp"
#include "baselines/baseline_engines.hpp"
#include "kv_snapshot.hpp"
#include "numeric/rng.hpp"
#include "serve/engine.hpp"

namespace lserve {
namespace {

/// Writes all of k/v into one dense fp16 kv head (pages of `page_size`),
/// then runs the last `chunk` rows' attention through
/// fused_chunked_prefill, i.e. the causal span builder and the page walk.
num::Tensor walk_chunk(const num::Tensor& q, const num::Tensor& k,
                       const num::Tensor& v, std::size_t page_size,
                       std::size_t chunk, float scale) {
  const std::size_t total = q.rows(), d = q.cols(), hist = total - chunk;
  kv::PageConfig pages;
  pages.page_size = page_size;
  pages.logical_page_size = page_size;
  pages.head_dim = d;
  kv::PageAllocator alloc(pages, total / page_size + 2);
  kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kDense}, {});
  for (std::size_t t = 0; t < total; ++t) {
    cache.append(alloc, alloc, 0, 0, k.row(t), v.row(t));
  }
  attn::FusedPrefillConfig cfg;
  cfg.tiling = {page_size, page_size};
  cfg.scale = scale;
  num::Tensor out(chunk, d);
  attn::fused_chunked_prefill(alloc, alloc, cache, 0,
                              q.view().rows_slice(hist, chunk),
                              k.view().rows_slice(hist, chunk),
                              v.view().rows_slice(hist, chunk), d, cfg,
                              out.view());
  cache.release(alloc, alloc);
  return out;
}

// A chunk with no history is a whole prompt: every row matches the dense
// oracle.
TEST(ChunkedPrefillKernel, EmptyHistoryEqualsDenseReference) {
  const std::size_t n = 64, d = 16;
  num::Rng rng(1);
  num::Tensor q(n, d), k(n, d), v(n, d), a(n, d);
  for (auto* t : {&q, &k, &v}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  attn::dense_prefill_reference(q.view(), k.view(), v.view(), 0.25f,
                                a.view());
  const num::Tensor b = walk_chunk(q, k, v, 16, n, 0.25f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4f);
  }
}

TEST(ChunkedPrefillKernel, HistoryPlusChunkEqualsMonolithic) {
  // Split a 48-token sequence into 32 cached + 16 chunk; the chunk rows'
  // outputs must equal the corresponding rows of a monolithic prefill.
  const std::size_t total = 48, hist = 32, d = 16;
  num::Rng rng(2);
  num::Tensor q(total, d), k(total, d), v(total, d), mono(total, d);
  for (auto* t : {&q, &k, &v}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  attn::dense_prefill_reference(q.view(), k.view(), v.view(), 0.25f,
                                mono.view());
  const std::size_t chunk = total - hist;
  const num::Tensor out = walk_chunk(q, k, v, 8, chunk, 0.25f);
  for (std::size_t r = 0; r < chunk; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(out.at(r, c), mono.at(hist + r, c), 1e-4f) << "row " << r;
    }
  }
}

TEST(ChunkedPrefillKernel, PartialHistoryPageHandled) {
  // 19 cached tokens: the trailing block is partial.
  const std::size_t hist = 19, chunk = 8, d = 8;
  num::Rng rng(3);
  num::Tensor q(hist + chunk, d), k(hist + chunk, d), v(hist + chunk, d);
  for (auto* t : {&q, &k, &v}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  num::Tensor mono(hist + chunk, d);
  attn::dense_prefill_reference(q.view(), k.view(), v.view(), 0.354f,
                                mono.view());
  const num::Tensor out = walk_chunk(q, k, v, 8, chunk, 0.354f);
  for (std::size_t r = 0; r < chunk; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(out.at(r, c), mono.at(hist + r, c), 1e-4f);
    }
  }
}

serve::EngineConfig dense_cfg(std::size_t chunk) {
  serve::EngineConfig cfg = baselines::vllm_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 8;
  cfg.tiling = {8, 8};
  cfg.prefill_chunk_tokens = chunk;
  cfg.pool_pages = 256;
  return cfg;
}

class EngineChunking : public ::testing::TestWithParam<std::size_t> {};

// Chunked prefill through the whole engine must reproduce the monolithic
// engine's generation exactly (fp16 KV: cache reads are lossless).
TEST_P(EngineChunking, MatchesMonolithicGeneration) {
  std::vector<std::int32_t> ids(52);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((9 * i + 4) % 251);
  }
  serve::Engine mono(dense_cfg(0));
  serve::Engine chunked(dense_cfg(GetParam()));
  const auto sm = mono.create_sequence();
  const auto sc = chunked.create_sequence();
  EXPECT_EQ(mono.generate(sm, ids, 6), chunked.generate(sc, ids, 6))
      << "chunk=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, EngineChunking,
                         ::testing::Values(8, 16, 24, 52, 13));

TEST(EngineChunking, StreamingHeadsCoveringConfigStillMatches) {
  // LServe config whose Λ window and budget cover the whole prompt:
  // chunked sparse == monolithic dense.
  std::vector<std::int32_t> ids(48);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((7 * i + 2) % 251);
  }
  serve::EngineConfig sparse_cfg = dense_cfg(16);
  sparse_cfg.streaming_fraction = 0.5;
  sparse_cfg.streaming = {/*sink=*/64, /*local=*/512};
  sparse_cfg.dynamic_decode = true;
  sparse_cfg.selector.token_budget = 4096;
  serve::Engine mono(dense_cfg(0));
  serve::Engine sparse(sparse_cfg);
  const auto sm = mono.create_sequence();
  const auto ss = sparse.create_sequence();
  EXPECT_EQ(mono.generate(sm, ids, 6), sparse.generate(ss, ids, 6));
}

// The served preset itself (int4, 64-token pages with 16-token logical
// pages, 64 sink + 256 local tokens, 64-row tiles): any chunk size, below,
// at or past the local window, writes the same K/V bits and reads out the
// same tokens as one monolithic prefill.
class ServedPresetChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServedPresetChunking, MatchesMonolithicPrefill) {
  std::vector<std::int32_t> ids(700);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((11 * i + 6) % 251);
  }
  const auto run = [&](std::size_t chunk, std::vector<float>* kv) {
    serve::EngineConfig cfg = baselines::lserve_config(model::tiny());
    cfg.prefill_chunk_tokens = chunk;
    serve::Engine engine(cfg);
    const auto seq = engine.create_sequence();
    std::vector<std::int32_t> out{engine.prefill(seq, ids)};
    *kv = test::kv_snapshot(engine, seq);
    for (std::size_t i = 1; i < 6; ++i) {
      out.push_back(engine.decode(seq, out.back()));
    }
    return out;
  };
  std::vector<float> mono_kv, chunked_kv;
  const auto mono = run(0, &mono_kv);
  const auto chunked = run(GetParam(), &chunked_kv);
  EXPECT_EQ(mono, chunked) << "chunk=" << GetParam();
  ASSERT_EQ(mono_kv.size(), chunked_kv.size());
  EXPECT_EQ(std::memcmp(mono_kv.data(), chunked_kv.data(),
                        mono_kv.size() * sizeof(float)),
            0)
      << "chunk=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ServedPresetChunking,
                         ::testing::Values(1, 13, 64, 128, 320));

TEST(EngineChunking, ChunkedLServeWithRealSparsityIsWellFormed) {
  serve::EngineConfig cfg = baselines::lserve_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 4;
  cfg.tiling = {8, 8};
  cfg.streaming = {/*sink=*/8, /*local=*/32};
  cfg.selector.token_budget = 32;
  cfg.prefill_chunk_tokens = 16;
  serve::Engine engine(cfg);
  std::vector<std::int32_t> ids(80);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int32_t>((3 * i + 1) % 251);
  }
  const auto seq = engine.create_sequence();
  const auto out = engine.generate(seq, ids, 4);
  EXPECT_EQ(out.size(), 4u);
  for (auto t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 256);
  }
  engine.release_sequence(seq);
  EXPECT_EQ(engine.dense_allocator().pages_in_use(), 0u);
  EXPECT_EQ(engine.stream_allocator().pages_in_use(), 0u);
}

}  // namespace
}  // namespace lserve
