#include "attn/fused_attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "kv/page_auditor.hpp"
#include "numeric/math.hpp"

namespace lserve::attn {
namespace {

float resolve_scale(float scale, std::size_t head_dim) {
  if (scale != 0.0f) return scale;
  return 1.0f / std::sqrt(static_cast<float>(head_dim));
}

}  // namespace

std::vector<PageSpan> mask_spans(const kv::SelectedPageTable& table,
                                 std::size_t page_size, std::size_t end,
                                 std::size_t origin, std::size_t tile_k,
                                 const std::function<bool(std::size_t)>& keep) {
  std::vector<PageSpan> spans;
  for (const kv::SelectedPage& e : table) {
    const std::size_t base = std::size_t{e.block} * page_size;
    if (base >= end) break;
    const std::size_t page_end = std::min(base + page_size, end);
    for (std::size_t t = base; t < page_end;) {
      // Tokens before `origin` are one kept run; after it, whole tiles.
      const bool before = t < origin;
      const std::size_t kb = before ? 0 : (t - origin) / tile_k;
      const std::size_t stop =
          std::min(before ? origin : origin + (kb + 1) * tile_k, page_end);
      if (before || keep(kb)) {
        const auto lo = static_cast<std::uint32_t>(t - base);
        const auto hi = static_cast<std::uint32_t>(stop - base);
        if (!spans.empty() && spans.back().page == e.page &&
            spans.back().end == lo) {
          spans.back().end = hi;
        } else {
          spans.push_back({e.page, e.block, lo, hi});
        }
      }
      t = stop;
    }
  }
  return spans;
}

namespace {

/// One unit of a chunk's attention: query head `head` over chunk rows
/// [row0, row0 + rows), which all walk one span list.
struct PrefillTask {
  const kv::PageAllocator* alloc = nullptr;
  std::size_t head = 0;
  std::size_t row0 = 0;
  std::size_t rows = 0;
  std::size_t pos0 = 0;  ///< absolute position of chunk row row0.
  std::vector<PageSpan> spans;
  std::size_t cost = 0;  ///< (row, listed token) pairs.
};

/// The layer's tasks, most expensive first: a dense head's tile at depth
/// costs ~16x a streaming head's, so the cheap tasks fill in behind.
std::vector<PrefillTask> plan_prefill(const kv::PageAllocator& dense_alloc,
                                      const kv::PageAllocator& stream_alloc,
                                      const kv::TwoWayKvCache& cache,
                                      std::size_t layer, num::ConstMatView q,
                                      num::ConstMatView k,
                                      std::size_t head_dim,
                                      const FusedPrefillConfig& cfg,
                                      float scale) {
  const std::size_t n = q.rows;
  const std::size_t kv_heads = cache.kv_heads();
  const std::size_t group = q.cols / head_dim / kv_heads;
  const std::size_t tq = cfg.tiling.tile_q;
  const std::size_t tk = cfg.tiling.tile_k;
  std::vector<PrefillTask> tasks;
  for (std::size_t h = 0; h < kv_heads * group; ++h) {
    const std::size_t kvh = h / group;
    const bool streaming = cache.kind(layer, kvh) == kv::HeadKind::kStreaming;
    const bool dynamic = !streaming && cfg.dynamic_dense;
    const kv::PageAllocator& alloc = streaming ? stream_alloc : dense_alloc;
    // Per-head token counts are authoritative: during a chunked prefill
    // the layer loop interleaves write-back and attention, so the global
    // sequence counter is ahead of the not-yet-written layers. The chunk
    // was appended before this call, so history is what precedes it.
    const std::size_t appended =
        streaming ? cache.streaming_head(layer, kvh).tokens()
                  : cache.dense_head(layer, kvh).tokens();
    assert(appended >= n);
    const std::size_t history = appended - n;
    const std::size_t total_tokens =
        cfg.total_tokens != 0 ? cfg.total_tokens : appended;
    assert(total_tokens >= appended);
    // The table includes the chunk's own pages (and, for streaming heads,
    // stale locals whose eviction is deferred to end of chunk).
    const kv::SelectedPageTable table =
        streaming ? cache.streaming_head(layer, kvh).index_table()
                  : kv::full_page_table(
                        cache.dense_head(layer, kvh).view(dense_alloc));
    // The dynamic mask is estimated from the chunk's own q/k, so its tiles
    // start at the chunk; causal and Λ tiles are absolute, so a chunk
    // starting mid-tile splits the tile's rows, never its mask.
    const std::size_t origin = dynamic ? history : 0;
    const BlockMask mask =
        dynamic ? sparse::build_dynamic_prefill_mask(
                      q.cols_slice(h * head_dim, head_dim),
                      k.cols_slice(kvh * head_dim, head_dim), cfg.tiling,
                      cfg.dynamic_cfg, scale)
                : BlockMask{};
    for (std::size_t row0 = 0; row0 < n;) {
      const std::size_t pos = history + row0;
      const std::size_t q_tile = (pos - origin) / tq;
      const std::size_t end = std::min(history + n, origin + (q_tile + 1) * tq);
      // Λ: the q-tile's diagonal clamped to the prompt — the decision
      // BlockMask::streaming makes for a monolithic prefill.
      const std::size_t diag = cfg.tiling.diag_block(q_tile, total_tokens);
      const auto keep = [&](std::size_t kb) {
        if (streaming) return cfg.streaming.keeps(kb, diag);
        return !dynamic || mask.kept(q_tile, kb);
      };
      std::vector<PageSpan> spans = mask_spans(
          table, alloc.config().page_size, end, origin, tk, keep);
      std::size_t tokens = 0;
      for (const PageSpan& s : spans) tokens += s.end - s.begin;
      tasks.push_back({&alloc, h, row0, end - pos, pos, std::move(spans),
                       (end - pos) * tokens});
      row0 = end - history;
    }
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const PrefillTask& a, const PrefillTask& b) {
                     return a.cost > b.cost;
                   });
  return tasks;
}

}  // namespace

void fused_chunked_prefill(const kv::PageAllocator& dense_alloc,
                           const kv::PageAllocator& stream_alloc,
                           const kv::TwoWayKvCache& cache, std::size_t layer,
                           num::ConstMatView q, num::ConstMatView k,
                           [[maybe_unused]] num::ConstMatView v,
                           std::size_t head_dim,
                           const FusedPrefillConfig& cfg, num::MatView out,
                           const ParallelFor& parallel_for) {
  assert(k.cols == cache.kv_heads() * head_dim && v.rows == q.rows);
  assert(q.cols % k.cols == 0 && out.rows == q.rows);
  const float scale = resolve_scale(cfg.scale, head_dim);
  const std::vector<PrefillTask> tasks = plan_prefill(
      dense_alloc, stream_alloc, cache, layer, q, k, head_dim, cfg, scale);
  const std::function<void(std::size_t)> run = [&](std::size_t i) {
    const PrefillTask& t = tasks[i];
    std::vector<std::size_t> row_end(t.rows);
    for (std::size_t r = 0; r < t.rows; ++r) row_end[r] = t.pos0 + r + 1;
    sparse_paged_attention(
        *t.alloc, t.spans, row_end,
        q.cols_slice(t.head * head_dim, head_dim).rows_slice(t.row0, t.rows),
        scale,
        out.cols_slice(t.head * head_dim, head_dim).rows_slice(t.row0, t.rows));
  };
  if (parallel_for) {
    parallel_for(tasks.size(), run);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) run(i);
  }
}

void fused_sparse_decode(const kv::PageAllocator& dense_alloc,
                         const kv::PageAllocator& stream_alloc,
                         const kv::TwoWayKvCache& cache, std::size_t layer,
                         num::ConstMatView q_heads, std::size_t group_size,
                         sparse::ReusableSelector* selector, std::size_t step,
                         const FusedDecodeConfig& cfg, num::MatView out,
                         DecodeWorkStats* stats) {
  const std::size_t head_dim = q_heads.cols;
  const std::size_t kv_heads = cache.kv_heads();
  assert(q_heads.rows == kv_heads * group_size);
  const float scale = resolve_scale(cfg.scale, head_dim);
  const std::size_t seq_tokens = cache.tokens();

  std::vector<float> group_q(head_dim);
  for (std::size_t kvh = 0; kvh < kv_heads; ++kvh) {
    kv::SelectedPageTable table;

    if (cache.kind(layer, kvh) == kv::HeadKind::kStreaming) {
      table = cache.streaming_head(layer, kvh).index_table();
    } else {
      const kv::HeadCache& head = cache.dense_head(layer, kvh);
      if (!cfg.dynamic_dense) {
        table = kv::full_page_table(head.view(dense_alloc));
      } else {
        // Selector query: mean of the group's query heads (one selection
        // per kv head, shared across its group).
        std::fill(group_q.begin(), group_q.end(), 0.0f);
        for (std::size_t g = 0; g < group_size; ++g) {
          num::axpy(1.0f / static_cast<float>(group_size),
                    q_heads.row(kvh * group_size + g), group_q.data(),
                    head_dim);
        }
        auto recompute = [&]() {
          return cfg.hierarchical
                     ? sparse::select_pages_hierarchical(
                           dense_alloc, head, group_q.data(), cfg.selector)
                     : sparse::select_pages_flat(dense_alloc, head,
                                                 group_q.data(), cfg.selector);
        };
        if (selector != nullptr) {
          const std::size_t slot = layer * kv_heads + kvh;
          table = selector->get(slot, step, head.pages(), recompute);
        } else {
          table = recompute();
        }
      }
#if LSERVE_AUDIT_ENABLED
      // The newest block holds this step's own key; a dense table without
      // it drops the token being decoded.
      const std::size_t newest =
          (seq_tokens - 1) / dense_alloc.config().page_size;
      if (seq_tokens > 0 && (table.empty() || table.back().block != newest)) {
        std::fprintf(stderr,
                     "[lserve audit] layer %zu kv head %zu: decode table "
                     "lacks the newest block %zu at %zu tokens\n",
                     layer, kvh, newest, seq_tokens);
        std::abort();
      }
#endif
    }

    const kv::PageAllocator& alloc =
        cache.kind(layer, kvh) == kv::HeadKind::kStreaming ? stream_alloc
                                                           : dense_alloc;
    // Tiered store: hint the whole selected table before the walk so the
    // prefetcher can promote cold pages while the walk reads the hot ones
    // (no-op when tiering is off).
    alloc.prefetch(std::span<const kv::SelectedPage>(table));
    // One walk for the whole query group: each page is read once.
    sparse_paged_decode(alloc, table, seq_tokens,
                        q_heads.rows_slice(kvh * group_size, group_size),
                        scale, out.rows_slice(kvh * group_size, group_size),
                        nullptr, stats);
  }
}

}  // namespace lserve::attn
