// The paged attention walk (LServe §3.6): one kernel for decode steps and
// prefill chunks, parallel over query rows, sequential over pages.
//
// The walk visits a list of page spans in order; each entry's logical
// block maps the step back to token positions (the two-level
// physical->logical indexing). Every row carries its own causal end. A
// decode step is the case where every row ends at the sequence's token
// count and every page of a table is folded whole: the full page table
// (vLLM baseline), the page selector's output, or a streaming head's
// sink+local index table. A prefill row ends one past its own position and
// walks the spans of its q-tile's mask (attn/fused_attention.hpp).
//
// Each listed page is pinned and read once for all rows of a call (a kv
// head's GQA query group in decode, a q-tile's rows in prefill): int4/int8
// codes are unpacked once, fp16-modelled pages are read in place. Scores
// come straight from the codes and each token's stored (scale, zero_point):
// s·(q·c − z·Σq). V is accumulated from the codes too, with one per-row
// zero-point bias term subtracted at the end.
//
// Fold order: page-blocked. Per row, a span's visible scores come first,
// the row's running max moves to the span max with one rescale, then the
// span's tokens accumulate in slot order. The order depends only on the
// spans, the row's query and its causal end, so a call is bit-identical to
// one-row calls, and a prefill row equals a decode step over its pages.
//
// Register tiles: the rows that see a span go in 2-row tiles (an odd last
// row alone). Scores are computed for 4-slot blocks at absolute slots,
// each dot as four channel lanes (c mod 4) combined (a0 + a2) + (a1 + a3);
// a block's scores are exponentiated at once (num::exp_lanes) and the
// span's max, normalizer and bias are lane sums masked to the row's slots;
// the tile's rows share each V row, each channel summing in slot order. A
// row's arithmetic never depends on which row shares its tile.
//
// Work counters: DecodeWorkStats::pages_visited / tokens_visited count per
// query row (one per span a row folds, plus the tokens it folds), since
// consumers normalize by context x q_heads x layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "kv/page_allocator.hpp"
#include "kv/page_table.hpp"
#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Cumulative work counters used by benches to verify iteration-count
/// claims (theoretical speedup = fewer sequential iterations).
struct DecodeWorkStats {
  std::size_t pages_visited = 0;
  std::size_t tokens_visited = 0;
  /// Attention-policy routing telemetry, filled by the serving engine per
  /// decode step (never by the kernel): steps that ran full-context dense
  /// reads vs the configured sparse-capable pipeline. Lives in this
  /// scratch so the engine's ordered post-join merge keeps the counters
  /// bit-identical across decode thread counts.
  std::size_t dense_route_steps = 0;
  std::size_t sparse_route_steps = 0;
};

/// One stretch of a page the walk folds: slots [begin, end) of `page`,
/// which holds logical block `block` (slot s is token block*page_size + s).
struct PageSpan {
  kv::PageId page = kv::kInvalidPage;
  std::uint32_t block = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// The walk. `spans` lists the pages to visit in ascending token order;
/// `row_end[r]` is row r's causal end: the row folds only tokens before
/// it. `q` holds the query rows ([rows x head_dim]); the normalized
/// outputs are written to the matching rows of `out`. `lse_out`, if
/// non-null, receives each row's score log-sum-exp (`q.rows` floats);
/// `stats`, if non-null, is incremented. A row that sees no token outputs
/// zeros. Pages no row can see are never pinned.
void sparse_paged_attention(const kv::PageAllocator& alloc,
                            std::span<const PageSpan> spans,
                            std::span<const std::size_t> row_end,
                            num::ConstMatView q, float scale,
                            num::MatView out, float* lse_out = nullptr,
                            DecodeWorkStats* stats = nullptr);

/// Decode for one kv head's query group ([rows x head_dim] in `q`; a
/// single head is a one-row group): the walk over `table`'s pages (sorted
/// by logical block) with every row ending at the sequence's token count
/// `seq_tokens`. Arguments otherwise as for sparse_paged_attention.
void sparse_paged_decode(const kv::PageAllocator& alloc,
                         const kv::SelectedPageTable& table,
                         std::size_t seq_tokens, num::ConstMatView q,
                         float scale, num::MatView out,
                         float* lse_out = nullptr,
                         DecodeWorkStats* stats = nullptr);

}  // namespace lserve::attn
