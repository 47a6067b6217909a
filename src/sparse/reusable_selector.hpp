// Reusable page selection (LServe §3.5.3, Fig 8).
//
// Decode attention has temporal locality: adjacent query tokens attend to
// similar history pages, so the page-selection decision can be shared
// across a chunk of consecutive decode steps. The selector is activated
// only at the first token of each `reuse_interval`-sized chunk; the
// following steps reuse the cached SelectedPageTable. This cuts selector
// overhead by the reuse interval (4x by default) — crucial because the
// selector's cost grows linearly with context while sparse attention itself
// is constant (Fig 14). A reused table still covers every page created
// since its selection, so the decoding token's own key is never dropped.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "kv/page_table.hpp"

namespace lserve::sparse {

/// Cache of per-slot selected page tables with chunked refresh. A "slot" is
/// one (layer, kv-head) pair; the engine sizes the cache once.
class ReusableSelector {
 public:
  /// `slots` = layers * kv_heads; `reuse_interval` = chunk size C (>= 1).
  ReusableSelector(std::size_t slots, std::size_t reuse_interval);

  /// Returns the table for `slot` at decode step `step` (0-based within the
  /// generation), recomputing via `recompute()` only on chunk boundaries.
  /// `pages` is the head's full page table (logical block -> page): a
  /// reused table gains the blocks created since its selection.
  template <typename Fn>
  const kv::SelectedPageTable& get(std::size_t slot, std::size_t step,
                                   std::span<const kv::PageId> pages,
                                   Fn&& recompute) {
    Entry& e = entries_[slot];
    const std::size_t chunk = step / interval_;
    if (!e.valid || e.chunk != chunk) {
      e.table = recompute();
      e.chunk = chunk;
      e.valid = true;
      ++selector_runs_;
    } else {
      for (std::size_t b = e.blocks; b < pages.size(); ++b) {
        e.table.push_back({pages[b], static_cast<std::uint32_t>(b)});
      }
      ++reuses_;
    }
    e.blocks = pages.size();
    return e.table;
  }

  /// Invalidates all cached tables (e.g. when a sequence is recycled).
  void reset();

  std::size_t reuse_interval() const noexcept { return interval_; }
  /// Telemetry: how often the real selector ran vs was skipped.
  std::size_t selector_runs() const noexcept { return selector_runs_; }
  std::size_t reuses() const noexcept { return reuses_; }

 private:
  struct Entry {
    kv::SelectedPageTable table;
    std::size_t blocks = 0;  ///< head blocks the table has accounted for.
    std::size_t chunk = 0;
    bool valid = false;
  };
  std::vector<Entry> entries_;
  std::size_t interval_;
  std::size_t selector_runs_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace lserve::sparse
