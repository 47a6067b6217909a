// Page tables: the logical-block -> physical-page indirection.
//
// A full table maps every logical block of a sequence to a physical page
// (vLLM-style). The decode-stage page selector emits a *shorter* table of
// SelectedPage entries — LServe's key trick of decomposing dynamic sparse
// attention into (page selection) + (dense attention over a shorter page
// table). Each entry carries the logical block index so the kernel's
// physical iteration step i can be mapped back to the token positions
// [block*NP, block*NP + len) — the two-level index of §3.6.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kv/page.hpp"

namespace lserve::kv {

/// One entry of a (possibly pruned) page table.
struct SelectedPage {
  PageId page = kInvalidPage;
  std::uint32_t block = 0;  ///< logical block index within the sequence.

  friend bool operator==(const SelectedPage&, const SelectedPage&) = default;
};

/// A pruned page table: the selector's output, consumed by the sparse
/// decode kernel. Entries are sorted by logical block index.
using SelectedPageTable = std::vector<SelectedPage>;

/// Read-only view of a full per-head page table.
struct PageTableView {
  std::span<const PageId> pages;  ///< logical block -> physical page.
  std::size_t tokens = 0;         ///< total tokens stored in this head.
  std::size_t page_size = 0;      ///< NP.

  std::size_t num_blocks() const noexcept { return pages.size(); }

  /// Tokens held by logical block b (the final block may be partial).
  std::size_t block_tokens(std::size_t b) const noexcept {
    const std::size_t begin = b * page_size;
    const std::size_t remaining = tokens > begin ? tokens - begin : 0;
    return remaining < page_size ? remaining : page_size;
  }
};

/// Builds the identity (dense) selected-page table covering all blocks.
SelectedPageTable full_page_table(const PageTableView& view);

}  // namespace lserve::kv
