// Tests for the reusable page selector (src/sparse/reusable_selector).
#include <gtest/gtest.h>

#include "sparse/reusable_selector.hpp"

namespace lserve::sparse {
namespace {

kv::SelectedPageTable table_of(std::uint32_t block) {
  return {{kv::PageId{0}, block}};
}

TEST(ReusableSelector, IntervalOneRecomputesEveryStep) {
  ReusableSelector sel(/*slots=*/1, /*reuse_interval=*/1);
  int calls = 0;
  for (std::size_t step = 0; step < 5; ++step) {
    sel.get(0, step, {}, [&] {
      ++calls;
      return table_of(static_cast<std::uint32_t>(step));
    });
  }
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(sel.selector_runs(), 5u);
  EXPECT_EQ(sel.reuses(), 0u);
}

TEST(ReusableSelector, ReusesWithinChunk) {
  ReusableSelector sel(1, 4);
  int calls = 0;
  for (std::size_t step = 0; step < 8; ++step) {
    const auto& t = sel.get(0, step, {}, [&] {
      ++calls;
      return table_of(static_cast<std::uint32_t>(step));
    });
    // Steps 0-3 see the table computed at step 0; steps 4-7 at step 4.
    EXPECT_EQ(t[0].block, step < 4 ? 0u : 4u);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(sel.reuses(), 6u);
}

TEST(ReusableSelector, SlotsAreIndependent) {
  ReusableSelector sel(3, 4);
  int calls = 0;
  for (std::size_t slot = 0; slot < 3; ++slot) {
    sel.get(slot, 0, {}, [&] {
      ++calls;
      return table_of(static_cast<std::uint32_t>(slot));
    });
  }
  EXPECT_EQ(calls, 3);
  // Re-query within the chunk: no new calls, correct per-slot tables.
  for (std::size_t slot = 0; slot < 3; ++slot) {
    const auto& t = sel.get(slot, 2, {}, [&] {
      ++calls;
      return table_of(99);
    });
    EXPECT_EQ(t[0].block, slot);
  }
  EXPECT_EQ(calls, 3);
}

TEST(ReusableSelector, ResetInvalidatesCache) {
  ReusableSelector sel(1, 8);
  int calls = 0;
  auto recompute = [&] {
    ++calls;
    return table_of(7);
  };
  sel.get(0, 0, {}, recompute);
  sel.reset();
  sel.get(0, 1, {}, recompute);  // same chunk, but cache was dropped
  EXPECT_EQ(calls, 2);
}

TEST(ReusableSelector, ZeroIntervalTreatedAsOne) {
  ReusableSelector sel(1, 0);
  EXPECT_EQ(sel.reuse_interval(), 1u);
}

TEST(ReusableSelector, SelectorRunReductionIsInterval) {
  // The paper's 4x claim: over N steps with interval C, the selector runs
  // ceil(N/C) times.
  ReusableSelector sel(1, 4);
  int calls = 0;
  for (std::size_t step = 0; step < 64; ++step) {
    sel.get(0, step, {}, [&] {
      ++calls;
      return table_of(0);
    });
  }
  EXPECT_EQ(calls, 16);
}

TEST(ReusableSelector, NonZeroStartStepStillWorks) {
  // A sequence admitted mid-generation starts at its own step counter.
  ReusableSelector sel(1, 4);
  int calls = 0;
  for (std::size_t step = 6; step < 10; ++step) {
    sel.get(0, step, {}, [&] {
      ++calls;
      return table_of(static_cast<std::uint32_t>(step));
    });
  }
  // Steps 6,7 -> chunk 1; steps 8,9 -> chunk 2: two computations.
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace lserve::sparse
