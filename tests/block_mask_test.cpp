// Tests for prefill tile geometry and block masks (src/attn/block_mask).
#include <gtest/gtest.h>

#include <tuple>

#include "attn/block_mask.hpp"

namespace lserve::attn {
namespace {

TEST(BlockMask, CausalKeepsLowerTriangle) {
  // 64 tokens, 16x16 tiles -> 4x4 blocks, lower triangular.
  BlockMask m = BlockMask::causal(64, 16, 16);
  EXPECT_EQ(m.q_blocks(), 4u);
  EXPECT_EQ(m.k_blocks(), 4u);
  for (std::size_t qb = 0; qb < 4; ++qb) {
    for (std::size_t kb = 0; kb < 4; ++kb) {
      EXPECT_EQ(m.kept(qb, kb), kb <= qb) << qb << "," << kb;
    }
  }
  EXPECT_EQ(m.kept_blocks(), 10u);
  EXPECT_DOUBLE_EQ(m.sparsity_vs_causal(64, 16, 16), 0.0);
}

TEST(BlockMask, CausalHandlesRaggedTail) {
  // 50 tokens with 16-tile: 4 q blocks, last one covers rows 48..49.
  BlockMask m = BlockMask::causal(50, 16, 16);
  EXPECT_EQ(m.q_blocks(), 4u);
  // Last q block's diagonal k block is floor(49/16) = 3.
  EXPECT_TRUE(m.kept(3, 3));
}

TEST(BlockMask, StreamingKeepsSinksAndDiagonalBand) {
  BlockMask m = BlockMask::streaming(128, 16, 16, /*sink=*/1, /*local=*/2);
  // Query block 6 (rows 96..111): diag = 6. Kept: kb 0 (sink), 5, 6 (local).
  EXPECT_TRUE(m.kept(6, 0));
  EXPECT_TRUE(m.kept(6, 5));
  EXPECT_TRUE(m.kept(6, 6));
  EXPECT_FALSE(m.kept(6, 1));
  EXPECT_FALSE(m.kept(6, 4));
  // Early blocks are fully causal (everything is sink-or-local).
  EXPECT_TRUE(m.kept(0, 0));
  EXPECT_TRUE(m.kept(1, 0));
  EXPECT_TRUE(m.kept(1, 1));
}

TEST(BlockMask, StreamingSparsityGrowsWithLength) {
  const double s_short =
      BlockMask::streaming(128, 16, 16, 1, 2).sparsity_vs_causal(128, 16, 16);
  const double s_long =
      BlockMask::streaming(1024, 16, 16, 1, 2).sparsity_vs_causal(1024, 16,
                                                                  16);
  EXPECT_LT(s_short, s_long);
  EXPECT_GT(s_long, 0.8);  // nearly free at long context
}

// Theoretical speedup check from §3.1: Fig 4(b) has 10 of 21 causal blocks
// non-empty, giving a 2.1x theoretical speedup.
TEST(BlockMask, TheoreticalSpeedupExample) {
  // 6 q-blocks x 6 k-blocks causal = 21 blocks; keep 10.
  BlockMask m(6, 6);
  std::size_t kept = 0;
  for (std::size_t qb = 0; qb < 6 && kept < 10; ++qb) {
    for (std::size_t kb = 0; kb <= qb && kept < 10; ++kb) {
      m.set(qb, kb, true);
      ++kept;
    }
  }
  const double r = m.sparsity_vs_causal(6 * 16, 16, 16);
  EXPECT_NEAR(1.0 / (1.0 - r), 2.1, 0.01);
}

class MixedTileSizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(MixedTileSizes, CausalDiagonalConsistent) {
  const auto [tq, tk] = GetParam();
  const std::size_t n = 200;
  BlockMask m = BlockMask::causal(n, tq, tk);
  const PrefillTiling tiling{tq, tk};
  // For every q block, the kept k blocks are exactly those up to the one
  // holding the q block's last row.
  for (std::size_t qb = 0; qb < m.q_blocks(); ++qb) {
    const std::size_t last_row = std::min((qb + 1) * tq, n) - 1;
    EXPECT_EQ(tiling.diag_block(qb, n), last_row / tk);
    for (std::size_t kb = 0; kb < m.k_blocks(); ++kb) {
      EXPECT_EQ(m.kept(qb, kb), kb <= last_row / tk) << qb << "," << kb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileCombos, MixedTileSizes,
    ::testing::Values(std::make_tuple(16, 16), std::make_tuple(32, 16),
                      std::make_tuple(16, 32), std::make_tuple(64, 16),
                      std::make_tuple(8, 64)));

}  // namespace
}  // namespace lserve::attn
