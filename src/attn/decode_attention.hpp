// Unified sparse decode attention kernel (LServe §3.6).
//
// One kernel serves every decode-stage head flavour:
//   * dense head, no pruning      — table = full page table (vLLM baseline);
//   * dense head, dynamic pruning — table = page-selector output;
//   * streaming head              — table = sink+local index table.
//
// The kernel's physical iteration index walks the SelectedPageTable in
// order; each entry's logical block index maps the step back to the actual
// token positions (the two-level physical->logical indexing).
//
// Group walk: one call serves a kv head's whole GQA query group. Each
// selected page is pinned and read once for all of the group's query rows:
// int4/int8 pages have their codes unpacked once, fp16-modelled pages are
// read in place. Scores come straight from the codes and each token's
// stored (scale, zero_point): s·(q·c − z·Σq). V is accumulated from the
// codes too, with one per-row zero-point bias term subtracted at the end.
//
// Fold order: page-blocked. Per query row, a page's scores are computed
// first, the row's running max moves to the page max, the row's state is
// rescaled once, then the page's tokens are accumulated in slot order. The
// order depends only on the table and the row's own query, so a group call
// is bit-identical to one-row calls with the same queries.
//
// Work counters: DecodeWorkStats::pages_visited / tokens_visited still
// count per QUERY head (a group of g rows adds g per page and g x tokens
// per page), since consumers normalize by context x q_heads x layers. The
// K/V bytes actually read per kv head fall by the group size.
#pragma once

#include <cstddef>

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

/// Sparse decode for one kv head's query group.
///
/// `table` lists the pages to visit (sorted by logical block);
/// `seq_tokens` is the sequence's total token count, needed to size the
/// trailing partial block. `q` holds the group's query rows
/// ([rows x head_dim]; a single head is a one-row group); the normalized
/// outputs are written to the matching rows of `out`. `lse_out`, if
/// non-null, receives each row's score log-sum-exp (`q.rows` floats);
/// `stats`, if non-null, is incremented.
void sparse_paged_decode(const kv::PageAllocator& alloc,
                         const kv::SelectedPageTable& table,
                         std::size_t seq_tokens, num::ConstMatView q,
                         float scale, num::MatView out,
                         float* lse_out = nullptr,
                         DecodeWorkStats* stats = nullptr);

}  // namespace lserve::attn
