// Tests for the dynamic (MInference-style) prefill mask
// (src/sparse/prefill_mask).
#include <gtest/gtest.h>

#include <cmath>

#include "attn/dense_attention.hpp"
#include "numeric/rng.hpp"
#include "sparse/prefill_mask.hpp"

namespace lserve::sparse {
namespace {

num::Tensor random_mat(std::size_t n, std::size_t d, std::uint64_t seed) {
  num::Tensor t(n, d);
  num::Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.gaussian();
  return t;
}

TEST(DynamicPrefillMask, AlwaysKeepsSinkAndDiagonal) {
  const std::size_t n = 256, d = 16;
  const auto q = random_mat(n, d, 1);
  const auto k = random_mat(n, d, 2);
  DynamicPrefillConfig cfg;
  cfg.keep_ratio = 0.1;
  cfg.sink_blocks = 1;
  cfg.local_blocks = 1;
  const attn::BlockMask mask =
      build_dynamic_prefill_mask(q.view(), k.view(), {16, 16}, cfg, 0.25f);
  for (std::size_t qb = 0; qb < mask.q_blocks(); ++qb) {
    EXPECT_TRUE(mask.kept(qb, 0)) << "sink missing at q block " << qb;
    EXPECT_TRUE(mask.kept(qb, qb)) << "diagonal missing at q block " << qb;
  }
}

TEST(DynamicPrefillMask, RespectsCausality) {
  const std::size_t n = 200, d = 16;
  const auto q = random_mat(n, d, 3);
  const auto k = random_mat(n, d, 4);
  DynamicPrefillConfig cfg;
  const attn::BlockMask mask =
      build_dynamic_prefill_mask(q.view(), k.view(), {32, 16}, cfg, 0.25f);
  for (std::size_t qb = 0; qb < mask.q_blocks(); ++qb) {
    const std::size_t last_row = std::min((qb + 1) * 32, n) - 1;
    const std::size_t diag = last_row / 16;
    for (std::size_t kb = diag + 1; kb < mask.k_blocks(); ++kb) {
      EXPECT_FALSE(mask.kept(qb, kb));
    }
  }
}

TEST(DynamicPrefillMask, KeepRatioControlsSparsity) {
  const std::size_t n = 512, d = 16;
  const auto q = random_mat(n, d, 5);
  const auto k = random_mat(n, d, 6);
  DynamicPrefillConfig lo;
  lo.keep_ratio = 0.1;
  DynamicPrefillConfig hi;
  hi.keep_ratio = 0.8;
  const double s_lo = build_dynamic_prefill_mask(q.view(), k.view(), {16, 16},
                                                 lo, 0.25f)
                          .sparsity_vs_causal(n, 16, 16);
  const double s_hi = build_dynamic_prefill_mask(q.view(), k.view(), {16, 16},
                                                 hi, 0.25f)
                          .sparsity_vs_causal(n, 16, 16);
  EXPECT_GT(s_lo, s_hi);
  EXPECT_LT(s_hi, 0.25);
}

TEST(DynamicPrefillMask, SelectsHighAttentionBlocks) {
  // Plant a block of keys aligned with all queries: the pooled estimate
  // must rank it in, even far from the diagonal.
  const std::size_t n = 512, d = 16;
  num::Rng rng(7);
  num::Tensor q(n, d), k(n, d);
  const auto dir = rng.unit_vector(d);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t c = 0; c < d; ++c) {
      q.at(t, c) = 3.0f * dir[c] + 0.1f * rng.gaussian();
      k.at(t, c) = 0.5f * rng.gaussian();
    }
  }
  // Hot block: key tiles 5 (tokens 80..95 with TK=16).
  for (std::size_t t = 80; t < 96; ++t) {
    for (std::size_t c = 0; c < d; ++c) k.at(t, c) = 2.0f * dir[c];
  }
  DynamicPrefillConfig cfg;
  cfg.keep_ratio = 0.15;
  const attn::BlockMask mask =
      build_dynamic_prefill_mask(q.view(), k.view(), {16, 16}, cfg, 0.25f);
  // Every late query block should keep key block 5.
  for (std::size_t qb = 10; qb < mask.q_blocks(); ++qb) {
    EXPECT_TRUE(mask.kept(qb, 5)) << "q block " << qb;
  }
}

TEST(DynamicPrefillMask, DiagonalIsTheLastKeptBlock) {
  const std::size_t n = 128, d = 8;
  const auto q = random_mat(n, d, 8);
  const auto k = random_mat(n, d, 9);
  const attn::BlockMask mask = build_dynamic_prefill_mask(
      q.view(), k.view(), {16, 16}, DynamicPrefillConfig{}, 0.25f);
  for (std::size_t qb = 0; qb < mask.q_blocks(); ++qb) {
    EXPECT_TRUE(mask.kept(qb, qb)) << "q block " << qb;
    for (std::size_t kb = qb + 1; kb < mask.k_blocks(); ++kb) {
      EXPECT_FALSE(mask.kept(qb, kb)) << "q block " << qb << ", k " << kb;
    }
  }
}

}  // namespace
}  // namespace lserve::sparse
