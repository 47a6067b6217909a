// Tests for the per-sequence paged KV cache (src/kv/kv_cache,
// src/kv/page_table).
#include <gtest/gtest.h>

#include <vector>

#include "kv/kv_cache.hpp"
#include "numeric/rng.hpp"

namespace lserve::kv {
namespace {

PageConfig cfg() {
  PageConfig c;
  c.page_size = 8;
  c.logical_page_size = 4;
  c.head_dim = 8;
  return c;
}

TEST(HeadCache, AppendsAcrossPageBoundaries) {
  PageAllocator alloc(cfg(), 8);
  HeadCache head;
  num::Rng rng(1);
  std::vector<std::vector<float>> keys;
  for (std::size_t t = 0; t < 20; ++t) {
    std::vector<float> k(8), v(8);
    rng.fill_gaussian(k, 1.0f);
    rng.fill_gaussian(v, 1.0f);
    head.append(alloc, k.data(), v.data());
    keys.push_back(k);
  }
  EXPECT_EQ(head.tokens(), 20u);
  EXPECT_EQ(head.num_pages(), 3u);  // ceil(20/8)
  std::vector<float> out(8);
  for (std::size_t t = 0; t < 20; ++t) {
    head.load_key(alloc, t, out.data());
    for (std::size_t c = 0; c < 8; ++c) EXPECT_FLOAT_EQ(out[c], keys[t][c]);
  }
}

TEST(HeadCache, ViewReportsPartialTailBlock) {
  PageAllocator alloc(cfg(), 8);
  HeadCache head;
  std::vector<float> k(8, 1.0f), v(8, 2.0f);
  for (int t = 0; t < 11; ++t) head.append(alloc, k.data(), v.data());
  const PageTableView view = head.view(alloc);
  EXPECT_EQ(view.tokens, 11u);
  EXPECT_EQ(view.num_blocks(), 2u);
  EXPECT_EQ(view.block_tokens(0), 8u);
  EXPECT_EQ(view.block_tokens(1), 3u);
}

TEST(HeadCache, ReleaseReturnsAllPages) {
  PageAllocator alloc(cfg(), 8);
  HeadCache head;
  std::vector<float> k(8, 0.0f), v(8, 0.0f);
  for (int t = 0; t < 17; ++t) head.append(alloc, k.data(), v.data());
  EXPECT_EQ(alloc.pages_in_use(), 3u);
  head.release(alloc);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
  EXPECT_EQ(head.tokens(), 0u);
}

TEST(PageTable, FullTableCoversEveryBlock) {
  PageAllocator alloc(cfg(), 8);
  HeadCache head;
  std::vector<float> k(8, 0.0f), v(8, 0.0f);
  for (int t = 0; t < 19; ++t) head.append(alloc, k.data(), v.data());
  const auto view = head.view(alloc);
  const SelectedPageTable table = full_page_table(view);
  ASSERT_EQ(table.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(table[b].block, b);
    EXPECT_EQ(table[b].page, view.pages[b]);
  }
  std::size_t covered = 0;
  for (const SelectedPage& e : table) covered += view.block_tokens(e.block);
  EXPECT_EQ(covered, 19u);
}

TEST(SequenceKvCache, IndependentHeadsShareThePool) {
  PageAllocator alloc(cfg(), 16);
  SequenceKvCache cache(/*layers=*/2, /*kv_heads=*/3);
  std::vector<float> k(8, 1.0f), v(8, 2.0f);
  cache.head(0, 0).append(alloc, k.data(), v.data());
  cache.head(1, 2).append(alloc, k.data(), v.data());
  EXPECT_EQ(cache.head(0, 0).tokens(), 1u);
  EXPECT_EQ(cache.head(1, 2).tokens(), 1u);
  EXPECT_EQ(cache.head(0, 1).tokens(), 0u);
  EXPECT_EQ(alloc.pages_in_use(), 2u);
  cache.release(alloc);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
}

}  // namespace
}  // namespace lserve::kv
