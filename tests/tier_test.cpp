// Tests for the two-tier page store (src/kv/page_allocator, cold_store,
// memory_config): demote/promote round trips must be bit-exact, pinned
// pages must never demote, a pin miss must fall back to synchronous
// promotion, and release must reclaim both tiers. Tiered scheduler drains
// are checked against an untiered serial run in drain_oracle_test.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "kv/cold_store.hpp"
#include "kv/memory_config.hpp"
#include "kv/page_allocator.hpp"

namespace lserve::kv {
namespace {

PageConfig page_cfg(num::KvDtype dtype = num::KvDtype::kFp16) {
  PageConfig c;
  c.page_size = 8;
  c.logical_page_size = 4;
  c.head_dim = 4;
  c.dtype = dtype;
  return c;
}

/// Sync-prefetch tier config: deterministic promotion for unit tests.
TierConfig sync_tier(std::size_t hot_pages, std::size_t cold_bytes = 0) {
  TierConfig t;
  t.hot_pages = hot_pages;
  t.cold_bytes = cold_bytes;
  t.async_prefetch = false;
  return t;
}

/// Fills page `id` with a per-page deterministic token pattern.
void fill_page(PageAllocator& alloc, PageId id, std::size_t tokens,
               float salt) {
  const PageWritePin pin = alloc.pin_mut(id);
  for (std::size_t t = 0; t < tokens; ++t) {
    float k[4];
    float v[4];
    for (std::size_t d = 0; d < 4; ++d) {
      k[d] = salt + static_cast<float>(t) * 0.25f + static_cast<float>(d);
      v[d] = -salt + static_cast<float>(t) - static_cast<float>(d) * 0.5f;
    }
    pin.page().append(k, v);
  }
}

/// Reads every stored row back out through a pin.
std::vector<float> read_page(const PageAllocator& alloc, PageId id) {
  const PagePin pin = alloc.pin(id);
  std::vector<float> out;
  for (std::size_t t = 0; t < pin.page().size(); ++t) {
    float k[4];
    float v[4];
    pin.page().load_key(t, k);
    pin.page().load_value(t, v);
    out.insert(out.end(), k, k + 4);
    out.insert(out.end(), v, v + 4);
  }
  return out;
}

TEST(ColdStore, StoresAndReloadsSlotsVerbatim) {
  ColdStore store(/*slot_bytes=*/64, /*max_bytes=*/0);
  std::vector<std::uint8_t> a(64), b(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<std::uint8_t>(i);
    b[i] = static_cast<std::uint8_t>(255 - i);
  }
  const ColdSlotId sa = store.store(a.data());
  const ColdSlotId sb = store.store(b.data());
  ASSERT_NE(sa, kInvalidColdSlot);
  ASSERT_NE(sb, kInvalidColdSlot);
  EXPECT_EQ(store.slots_in_use(), 2u);
  EXPECT_EQ(store.bytes_in_use(), 128u);
  std::vector<std::uint8_t> out(64);
  store.load(sa, out.data());
  EXPECT_EQ(std::memcmp(out.data(), a.data(), 64), 0);
  store.load(sb, out.data());
  EXPECT_EQ(std::memcmp(out.data(), b.data(), 64), 0);
  store.release(sa);
  EXPECT_EQ(store.slots_in_use(), 1u);
  // Freed slots are reused.
  EXPECT_EQ(store.store(a.data()), sa);
}

TEST(ColdStore, ByteCapRejectsStores) {
  ColdStore store(/*slot_bytes=*/64, /*max_bytes=*/128);
  std::vector<std::uint8_t> buf(64, 7);
  EXPECT_NE(store.store(buf.data()), kInvalidColdSlot);
  EXPECT_NE(store.store(buf.data()), kInvalidColdSlot);
  EXPECT_EQ(store.store(buf.data()), kInvalidColdSlot);  // at the cap.
}

TEST(TieredAllocator, DemotePromoteRoundTripIsBitExact) {
  for (const num::KvDtype dtype :
       {num::KvDtype::kFp16, num::KvDtype::kInt8, num::KvDtype::kInt4}) {
    PageAllocator tiered(page_cfg(dtype), 8, sync_tier(/*hot_pages=*/2));
    PageAllocator flat(page_cfg(dtype), 8);
    std::vector<PageId> tp, fp;
    for (int i = 0; i < 6; ++i) {
      tp.push_back(tiered.allocate());
      fp.push_back(flat.allocate());
      // Partially filled tail pages must round-trip too.
      const std::size_t tokens = (i == 5) ? 3 : 8;
      fill_page(tiered, tp.back(), tokens, static_cast<float>(i));
      fill_page(flat, fp.back(), tokens, static_cast<float>(i));
    }
    const TierStats mid = tiered.tier_stats();
    EXPECT_GT(mid.demotions, 0u) << "hot budget 2 never spilled";
    EXPECT_GT(mid.cold_in_use, 0u);
    EXPECT_GT(mid.cold_bytes_in_use, 0u);
    // Every page — demoted or not — must read back exactly what the
    // untiered pool holds (quantized codes survive verbatim).
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(read_page(tiered, tp[i]), read_page(flat, fp[i]))
          << "page " << i << " dtype " << static_cast<int>(dtype);
    }
    for (const PageId id : tp) tiered.release(id);
    for (const PageId id : fp) flat.release(id);
  }
}

TEST(TieredAllocator, PinnedPagesAreNeverDemoted) {
  PageAllocator alloc(page_cfg(), 8, sync_tier(/*hot_pages=*/1));
  const PageId a = alloc.allocate();
  fill_page(alloc, a, 8, 1.0f);
  const PagePin hold = alloc.pin(a);  // pin across the whole test.
  std::vector<PageId> rest;
  for (int i = 0; i < 4; ++i) {
    rest.push_back(alloc.allocate());
    fill_page(alloc, rest.back(), 8, static_cast<float>(10 + i));
  }
  // The hot pool (budget 1) is far over budget; every unpinned page is a
  // victim candidate but `a` must still be hot: re-pinning it cannot have
  // triggered a synchronous promotion.
  const TierStats before = alloc.tier_stats();
  { const PagePin again = alloc.pin(a); }
  EXPECT_EQ(alloc.tier_stats().pin_promotions, before.pin_promotions);
  EXPECT_GT(before.demotions, 0u);
  for (const PageId id : rest) alloc.release(id);
}

TEST(TieredAllocator, PinMissPromotesSynchronously) {
  PageAllocator alloc(page_cfg(), 8, sync_tier(/*hot_pages=*/1));
  const PageId a = alloc.allocate();
  fill_page(alloc, a, 8, 3.0f);
  const PageId b = alloc.allocate();  // evicts a (only unpinned page).
  fill_page(alloc, b, 8, 4.0f);
  ASSERT_GT(alloc.tier_stats().demotions, 0u);
  const std::vector<float> back = read_page(alloc, a);  // pin-miss path.
  EXPECT_EQ(alloc.tier_stats().pin_promotions, 1u);
  EXPECT_EQ(back.size(), 8u * 8u);
  alloc.release(a);
  alloc.release(b);
}

TEST(TieredAllocator, SyncPrefetchPromotesAheadOfPins) {
  PageAllocator alloc(page_cfg(), 8, sync_tier(/*hot_pages=*/1));
  const PageId a = alloc.allocate();
  fill_page(alloc, a, 8, 5.0f);
  const PageId b = alloc.allocate();
  fill_page(alloc, b, 8, 6.0f);
  ASSERT_GT(alloc.tier_stats().demotions, 0u);
  const PageId cold = a;  // a was the only demotable page when b arrived.
  alloc.prefetch(std::span<const PageId>(&cold, 1));
  const TierStats after = alloc.tier_stats();
  EXPECT_EQ(after.prefetch_promotions, 1u);
  // The page is already hot, so the pin is a hit, not a promotion.
  read_page(alloc, cold);
  EXPECT_EQ(alloc.tier_stats().pin_promotions, 0u);
  alloc.release(a);
  alloc.release(b);
}

TEST(TieredAllocator, AsyncPrefetchEventuallyPromotes) {
  TierConfig t;
  t.hot_pages = 1;
  t.async_prefetch = true;
  PageAllocator alloc(page_cfg(), 8, t);
  const PageId a = alloc.allocate();
  fill_page(alloc, a, 8, 7.0f);
  const PageId b = alloc.allocate();
  fill_page(alloc, b, 8, 8.0f);
  ASSERT_GT(alloc.tier_stats().demotions, 0u);
  alloc.prefetch(std::span<const PageId>(&a, 1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (alloc.tier_stats().prefetch_promotions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(alloc.tier_stats().prefetch_requests, 1u);
  EXPECT_EQ(alloc.tier_stats().prefetch_promotions, 1u);
  EXPECT_EQ(read_page(alloc, a).size(), 8u * 8u);
  alloc.release(a);
  alloc.release(b);
}

TEST(TieredAllocator, SelectorScoresPickTheColdestVictim) {
  PageAllocator alloc(page_cfg(), 8, sync_tier(/*hot_pages=*/2));
  const PageId lo = alloc.allocate();
  const PageId hi = alloc.allocate();
  fill_page(alloc, lo, 8, 1.0f);
  fill_page(alloc, hi, 8, 2.0f);
  const PageId ids[2] = {lo, hi};
  const float scores[2] = {0.25f, 9.0f};
  alloc.note_scores(ids, scores);
  const PageId fresh = alloc.allocate();  // forces one demotion.
  fill_page(alloc, fresh, 8, 3.0f);
  // `hi` must still be hot (no sync promotion on its pin); `lo` was the
  // victim.
  const TierStats before = alloc.tier_stats();
  read_page(alloc, hi);
  EXPECT_EQ(alloc.tier_stats().pin_promotions, before.pin_promotions);
  read_page(alloc, lo);
  EXPECT_EQ(alloc.tier_stats().pin_promotions, before.pin_promotions + 1);
  alloc.release(lo);
  alloc.release(hi);
  alloc.release(fresh);
}

TEST(TieredAllocator, ColdCapPausesSpillingInsteadOfFailing) {
  const std::size_t slot = Page::serialized_bytes_for(page_cfg());
  // Room for exactly one cold page; the hot pool then soft-overruns.
  PageAllocator alloc(page_cfg(), 8,
                      sync_tier(/*hot_pages=*/1, /*cold_bytes=*/slot));
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(alloc.allocate());
    fill_page(alloc, ids.back(), 8, static_cast<float>(i));
  }
  const TierStats stats = alloc.tier_stats();
  EXPECT_EQ(stats.cold_in_use, 1u);
  EXPECT_EQ(stats.hot_in_use, 3u);
  EXPECT_LE(stats.cold_bytes_in_use, slot);
  for (const PageId id : ids) {
    EXPECT_EQ(read_page(alloc, id).size(), 8u * 8u);
  }
  for (const PageId id : ids) alloc.release(id);
}

TEST(TieredAllocator, ReleaseReclaimsBothTiers) {
  PageAllocator alloc(page_cfg(), 8, sync_tier(/*hot_pages=*/1));
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(alloc.allocate());
    fill_page(alloc, ids.back(), 8, static_cast<float>(i));
  }
  ASSERT_GT(alloc.tier_stats().cold_in_use, 0u);
  for (const PageId id : ids) alloc.release(id);
  const TierStats stats = alloc.tier_stats();
  EXPECT_EQ(stats.hot_in_use, 0u);
  EXPECT_EQ(stats.cold_in_use, 0u);
  EXPECT_EQ(stats.cold_bytes_in_use, 0u);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
  EXPECT_EQ(alloc.audit_pinned_pages(), 0u);  // no pin leaked either.
}

TEST(TieredAllocator, OccupancySplitsHotAndCold) {
  PageAllocator alloc(page_cfg(), 8, sync_tier(/*hot_pages=*/2));
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(alloc.allocate());
    fill_page(alloc, ids.back(), 8, static_cast<float>(i));
  }
  const PageAllocator::Occupancy occ = alloc.occupancy();
  EXPECT_EQ(occ.in_use, 5u);
  EXPECT_EQ(occ.hot_in_use + occ.cold_in_use, 5u);
  EXPECT_EQ(occ.hot_in_use, 2u);
  EXPECT_EQ(alloc.hot_pages_in_use(), 2u);
  // Cold pages dropped their device storage: accounting must show only
  // the hot-resident footprint.
  PageAllocator flat(page_cfg(), 8);
  const PageId f = flat.allocate();
  const double per_page = flat.device_bytes_in_use();
  EXPECT_DOUBLE_EQ(alloc.device_bytes_in_use(), 2.0 * per_page);
  flat.release(f);
  for (const PageId id : ids) alloc.release(id);
}

TEST(MemoryConfig, ParsesConsolidatedFlags) {
  MemoryConfig mc;
  EXPECT_TRUE(mc.parse_flag("--page-budget=128"));
  EXPECT_TRUE(mc.parse_flag("--prefix-cache-pages=32"));
  EXPECT_TRUE(mc.parse_flag("--hot-pages=64"));
  EXPECT_TRUE(mc.parse_flag("--cold-bytes=1048576"));
  EXPECT_FALSE(mc.parse_flag("--port=80"));
  EXPECT_FALSE(mc.parse_flag("--page-budget"));  // missing '='.
  EXPECT_EQ(mc.page_budget, 128u);
  EXPECT_EQ(mc.prefix_cache_pages, 32u);
  EXPECT_EQ(mc.hot_pages, 64u);
  EXPECT_EQ(mc.cold_bytes, 1048576u);
  EXPECT_TRUE(mc.tiered());
  EXPECT_FALSE(MemoryConfig{}.tiered());
}

}  // namespace
}  // namespace lserve::kv
