// Fused per-layer attention dispatch (LServe Fig 5, §3.4/§3.6).
//
// One call processes every query head of a layer, mixing sparsity patterns
// per head exactly as the fused CUDA kernels do, and every path runs the
// one paged walk of attn/decode_attention.hpp:
//   prefill — fused_chunked_prefill: the chunk's rows, already written to
//             pages, attend through span lists built at absolute
//             coordinates. Dense (retrieval) heads list every page up to
//             the row (causal) or the chunk's dynamically-estimated tiles;
//             streaming heads list the Λ mask's sink and local tiles.
//   decode  — fused_sparse_decode: every kv head's whole query group walks
//             its (possibly pruned) page table once: full / selector
//             output / sink+local index table.
// GQA is handled here: query head h reads kv head h / group_size, and the
// page selector scores against the group's mean query (one selection per
// kv head, shared by its query group).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "attn/block_mask.hpp"
#include "attn/decode_attention.hpp"
#include "kv/two_way_cache.hpp"
#include "sparse/hierarchical_selector.hpp"
#include "sparse/prefill_mask.hpp"
#include "sparse/quest_selector.hpp"
#include "sparse/reusable_selector.hpp"

namespace lserve::attn {

/// Prefill-stage policy for a layer.
struct FusedPrefillConfig {
  PrefillTiling tiling;
  StreamingBlocks streaming;          ///< Λ geometry for streaming heads.
  float scale = 0.0f;                 ///< 0 => 1/sqrt(head_dim).
  bool dynamic_dense = false;         ///< MInference-style mask on dense heads.
  sparse::DynamicPrefillConfig dynamic_cfg;
  /// Full sequence length being prefilled (prompt tokens), used by
  /// streaming heads to clamp the Λ diagonal in absolute coordinates so
  /// every chunk schedule makes identical tile decisions. 0 means "this
  /// chunk is the whole sequence" (history + chunk).
  std::size_t total_tokens = 0;
};

/// Decode-stage policy for a layer.
struct FusedDecodeConfig {
  float scale = 0.0f;                 ///< 0 => 1/sqrt(head_dim).
  bool dynamic_dense = true;          ///< page pruning on dense heads.
  bool hierarchical = true;           ///< hierarchical vs flat page scoring.
  sparse::PageSelectorConfig selector;
};

/// Lists, in ascending token order, the tokens of `table`'s pages before
/// `end` that a prefill mask keeps, as page spans: every token before
/// `origin`, then key tile kb (tokens origin + [kb, kb + 1) * tile_k) iff
/// keep(kb). Contiguous kept tokens on one page share one span, and a page
/// with no kept token is not listed, so a tiered pool promotes nothing
/// extra. The walk's per-row causal ends do the rest.
std::vector<PageSpan> mask_spans(const kv::SelectedPageTable& table,
                                 std::size_t page_size, std::size_t end,
                                 std::size_t origin, std::size_t tile_k,
                                 const std::function<bool(std::size_t)>& keep);

/// Runs fn(i) once for every i in [0, n), in any order and on any thread,
/// and returns when all calls have. Empty = inline, in index order.
using ParallelFor = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& fn)>;

/// Fused CHUNKED prefill over all heads of one layer. Called AFTER the
/// chunk's KV write-back (TwoWayKvCache::append_roundtrip, with streaming
/// eviction deferred): per-head token counts minus the chunk length give
/// the history extent, and the chunk's own K/V are read back from the
/// pages like the history's.
///
/// The work is one task per (query head, q-tile), most expensive first;
/// `parallel_for` runs them. A task's span list comes from its head's
/// mask: causal for dense heads; for streaming heads the Λ mask at
/// absolute tiles, its diagonal clamped to cfg.total_tokens. A row's
/// result then depends only on its query, its position and the pages, so
/// prefill is invariant to the chunk/attach schedule and to the thread
/// count. `dynamic_dense` masks are the exception: estimated from the
/// chunk's own q/k over chunk-local tiles, they stay schedule-dependent.
/// q: [n x q_heads*head_dim], k/v: [n x kv_heads*head_dim] for the CHUNK
/// (k feeds the dynamic mask estimate; v is not read).
void fused_chunked_prefill(const kv::PageAllocator& dense_alloc,
                           const kv::PageAllocator& stream_alloc,
                           const kv::TwoWayKvCache& cache, std::size_t layer,
                           num::ConstMatView q, num::ConstMatView k,
                           num::ConstMatView v, std::size_t head_dim,
                           const FusedPrefillConfig& cfg, num::MatView out,
                           const ParallelFor& parallel_for = {});

/// Fused decode over all heads of one layer.
/// q_heads: [q_heads x head_dim] current-token queries; out same shape.
/// `selector` may be null (then selection, if enabled, runs every step);
/// `step` is the 0-based decode step used for reuse chunking.
void fused_sparse_decode(const kv::PageAllocator& dense_alloc,
                         const kv::PageAllocator& stream_alloc,
                         const kv::TwoWayKvCache& cache, std::size_t layer,
                         num::ConstMatView q_heads, std::size_t group_size,
                         sparse::ReusableSelector* selector, std::size_t step,
                         const FusedDecodeConfig& cfg, num::MatView out,
                         DecodeWorkStats* stats = nullptr);

}  // namespace lserve::attn
