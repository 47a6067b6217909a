// Cross-cutting property tests: randomized invariants that must hold for
// any input, complementing the per-module unit suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "attn/block_iterator.hpp"
#include "attn/decode_attention.hpp"
#include "attn/fused_attention.hpp"
#include "kv/kv_cache.hpp"
#include "model/workload.hpp"
#include "numeric/math.hpp"
#include "numeric/quant.hpp"
#include "numeric/rng.hpp"
#include "sparse/hierarchical_selector.hpp"
#include "sparse/quest_selector.hpp"

namespace lserve {
namespace {

// ---- BlockMask: compressed rows are exactly the kept cells. ----
class MaskRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskRoundTrip, RowBlocksMatchKeptCells) {
  num::Rng rng(GetParam());
  const std::size_t qb = 1 + rng.next_below(12);
  const std::size_t kb = 1 + rng.next_below(20);
  attn::BlockMask mask(qb, kb);
  for (std::size_t i = 0; i < qb; ++i) {
    for (std::size_t j = 0; j < kb; ++j) {
      if (rng.next_double() < 0.4) mask.set(i, j, true);
    }
  }
  mask.finalize();
  std::size_t total = 0;
  for (std::size_t i = 0; i < qb; ++i) {
    const auto row = mask.row_blocks(i);
    total += row.size();
    for (std::size_t t = 0; t < row.size(); ++t) {
      EXPECT_TRUE(mask.kept(i, row[t]));
      if (t > 0) {
        EXPECT_LT(row[t - 1], row[t]);  // sorted, unique
      }
    }
  }
  EXPECT_EQ(total, mask.kept_blocks());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Quantization: dot-product error shrinks with more bits. ----
class QuantFidelity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantFidelity, MoreBitsNeverWorseOnAverage) {
  num::Rng rng(GetParam());
  const std::size_t d = 64;
  double err4 = 0.0, err8 = 0.0;
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<float> key(d), query(d), back(d);
    rng.fill_gaussian(key, 2.0f);
    rng.fill_gaussian(query, 1.0f);
    const double exact = num::dot(query.data(), key.data(), d);
    for (int bits : {4, 8}) {
      const num::QuantParams p =
          num::compute_quant_params(key.data(), d, bits);
      std::vector<std::uint8_t> codes(d);
      if (bits == 4) {
        num::quantize_row_int4(key.data(), d, p, codes.data());
        num::dequantize_row_int4(codes.data(), d, p, back.data());
      } else {
        num::quantize_row_int8(key.data(), d, p, codes.data());
        num::dequantize_row_int8(codes.data(), d, p, back.data());
      }
      const double err =
          std::abs(num::dot(query.data(), back.data(), d) - exact);
      (bits == 4 ? err4 : err8) += err;
    }
  }
  EXPECT_LT(err8, err4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantFidelity, ::testing::Values(11, 12, 13));

// ---- Selector: the selected set always contains the globally best page
// under the scoring metric (top-K consistency). ----
TEST(SelectorProperty, TopScoringPageAlwaysSelected) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    model::StreamConfig sc;
    sc.n_tokens = 2048;
    sc.head_dim = 32;
    sc.seed = seed;
    model::TokenStream stream = model::smooth_stream(sc);
    kv::PageConfig pages;
    pages.page_size = 64;
    pages.logical_page_size = 16;
    pages.head_dim = 32;
    kv::PageAllocator alloc(pages, 40);
    kv::HeadCache head;
    for (std::size_t t = 0; t < sc.n_tokens; ++t) {
      head.append(alloc, stream.keys.row(t), stream.values.row(t));
    }
    num::Rng rng(seed * 77);
    std::vector<float> q(32);
    rng.fill_gaussian(q, 1.5f);

    std::vector<float> scores(head.num_pages());
    sparse::hierarchical_page_scores(alloc, head, q.data(), scores.data());
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());

    sparse::PageSelectorConfig cfg;
    cfg.token_budget = 256;  // 4 of 32 pages
    const auto table =
        sparse::select_pages_hierarchical(alloc, head, q.data(), cfg);
    const bool contains_best =
        std::any_of(table.begin(), table.end(),
                    [&](const auto& e) { return e.block == best; });
    EXPECT_TRUE(contains_best) << "seed " << seed;
  }
}

// ---- Sparse decode == masked dense reference for ANY random subset of
// pages (the kernel is policy-agnostic). ----
class SubsetDecode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubsetDecode, MatchesMaskedReference) {
  num::Rng rng(GetParam());
  const std::size_t d = 16;
  const std::size_t n = 32 + rng.next_below(80);
  kv::PageConfig pages;
  pages.page_size = 8;
  pages.logical_page_size = 8;
  pages.head_dim = d;
  kv::PageAllocator alloc(pages, n / 8 + 2);
  kv::HeadCache head;
  std::vector<std::vector<float>> keys, values;
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<float> k(d), v(d);
    rng.fill_gaussian(k, 1.0f);
    rng.fill_gaussian(v, 1.0f);
    head.append(alloc, k.data(), v.data());
    keys.push_back(k);
    values.push_back(v);
  }
  const auto view = head.view(alloc);
  kv::SelectedPageTable table;
  std::vector<std::size_t> tokens;
  for (std::size_t b = 0; b < view.num_blocks(); ++b) {
    if (rng.next_double() < 0.5) {
      table.push_back({view.pages[b], static_cast<std::uint32_t>(b)});
      const std::size_t count = view.block_tokens(b);
      for (std::size_t s = 0; s < count; ++s) tokens.push_back(b * 8 + s);
    }
  }
  if (table.empty()) return;  // nothing selected: separate test covers it

  std::vector<float> q(d);
  rng.fill_gaussian(q, 1.0f);
  std::vector<float> out(d);
  attn::sparse_paged_decode(alloc, table, n,
                            num::ConstMatView{q.data(), 1, d, d}, 0.25f,
                            num::MatView{out.data(), 1, d, d});

  std::vector<float> scores;
  for (std::size_t t : tokens) {
    scores.push_back(0.25f * num::dot(q.data(), keys[t].data(), d));
  }
  num::softmax_inplace(scores.data(), scores.size());
  std::vector<float> ref(d, 0.0f);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    num::axpy(scores[i], values[tokens[i]].data(), ref.data(), d);
  }
  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetDecode,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---- Fused GQA decode equals per-head computation with shared kv head.
TEST(FusedDecodeProperty, GqaGroupsShareKvHead) {
  const std::size_t d = 16, kv_heads = 2, group = 3;
  kv::PageConfig pages;
  pages.page_size = 8;
  pages.logical_page_size = 8;
  pages.head_dim = d;
  kv::PageAllocator dense_alloc(pages, 64);
  kv::PageAllocator stream_alloc(pages, 8);
  kv::TwoWayKvCache cache(1, kv_heads,
                          {kv::HeadKind::kDense, kv::HeadKind::kDense},
                          {8, 16});
  num::Rng rng(31);
  for (std::size_t t = 0; t < 40; ++t) {
    for (std::size_t h = 0; h < kv_heads; ++h) {
      std::vector<float> k(d), v(d);
      rng.fill_gaussian(k, 1.0f);
      rng.fill_gaussian(v, 1.0f);
      cache.append(dense_alloc, stream_alloc, 0, h, k.data(), v.data());
    }
  }
  num::Tensor q(kv_heads * group, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();

  attn::FusedDecodeConfig fc;
  fc.dynamic_dense = false;
  num::Tensor out(kv_heads * group, d);
  attn::fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(),
                            group, nullptr, 0, fc, out.view());

  // Heads h and h' in the same group with IDENTICAL queries must produce
  // identical outputs (they read the same kv head).
  num::Tensor q2 = q;
  std::copy(q.row(0), q.row(0) + d, q2.row(1));  // head 1 := head 0's query
  num::Tensor out2(kv_heads * group, d);
  attn::fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q2.view(),
                            group, nullptr, 0, fc, out2.view());
  for (std::size_t c = 0; c < d; ++c) {
    EXPECT_FLOAT_EQ(out2.at(0, c), out2.at(1, c));
  }
}

// ---- salient_strength: planted needles dominate at every length. ----
class SalientStrength
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SalientStrength, NeedleMassDominatesSoftmax) {
  const auto [n, d] = GetParam();
  model::StreamConfig sc;
  sc.n_tokens = n;
  sc.head_dim = d;
  sc.seed = n + d;
  model::TokenStream stream = model::smooth_stream(sc);
  const float strength = model::salient_strength(n, d);
  const auto needle = model::plant_needle(stream, n / 2, strength, 3);
  const auto q = model::probe_query(needle, strength, 0.0f, 4);

  // Dense attention over the raw stream: output should align with payload.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  num::OnlineSoftmax acc(d);
  for (std::size_t t = 0; t < n; ++t) {
    acc.fold_one(scale * num::dot(q.data(), stream.keys.row(t), d),
                 stream.values.row(t));
  }
  std::vector<float> out(d);
  acc.finish(out.data());
  EXPECT_GT(num::cosine_similarity(out.data(), needle.payload.data(), d),
            0.9f)
      << "n=" << n << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SalientStrength,
    ::testing::Combine(::testing::Values(std::size_t{1024}, std::size_t{8192},
                                         std::size_t{32768}),
                       ::testing::Values(std::size_t{32}, std::size_t{128})));

// ---- OnlineSoftmax under extreme scores stays finite and normalized. ----
TEST(OnlineSoftmaxProperty, ExtremeScoresStayFinite) {
  const std::size_t d = 4;
  num::OnlineSoftmax acc(d);
  const float v1[d] = {1, 0, 0, 0};
  const float v2[d] = {0, 1, 0, 0};
  acc.fold_one(-1e30f, v1);
  acc.fold_one(1e4f, v2);
  acc.fold_one(-1e30f, v1);
  std::vector<float> out(d);
  acc.finish(out.data());
  for (float x : out) EXPECT_TRUE(std::isfinite(x));
  EXPECT_NEAR(out[1], 1.0f, 1e-5f);  // the dominant value wins
}

}  // namespace
}  // namespace lserve
