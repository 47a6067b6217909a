#include "attn/fused_attention.hpp"

#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {
namespace {

float resolve_scale(float scale, std::size_t head_dim) {
  if (scale != 0.0f) return scale;
  return 1.0f / std::sqrt(static_cast<float>(head_dim));
}

}  // namespace

void fused_chunked_prefill(const kv::PageAllocator& dense_alloc,
                           const kv::PageAllocator& stream_alloc,
                           const kv::TwoWayKvCache& cache, std::size_t layer,
                           num::ConstMatView q, num::ConstMatView k,
                           num::ConstMatView v, std::size_t head_dim,
                           const FusedPrefillConfig& cfg, num::MatView out) {
  const std::size_t n = q.rows;
  const std::size_t q_heads = q.cols / head_dim;
  const std::size_t kv_heads = cache.kv_heads();
  assert(k.cols == kv_heads * head_dim && q_heads % kv_heads == 0);
  const std::size_t group = q_heads / kv_heads;
  const float scale = resolve_scale(cfg.scale, head_dim);

  BlockMask causal =
      BlockMask::causal(n, cfg.tiling.tile_q, cfg.tiling.tile_k);
  causal.finalize();

  for (std::size_t kvh = 0; kvh < kv_heads; ++kvh) {
    const bool streaming = cache.kind(layer, kvh) == kv::HeadKind::kStreaming;
    // Per-head token counts are authoritative: during a chunked prefill
    // the layer loop interleaves write-back and attention, so the global
    // sequence counter is ahead of the not-yet-written layers. The chunk
    // was appended before this call, so history is what precedes it.
    const std::size_t appended =
        streaming ? cache.streaming_head(layer, kvh).tokens()
                  : cache.dense_head(layer, kvh).tokens();
    assert(appended >= n);
    const std::size_t history_tokens = appended - n;
    const std::size_t total_tokens =
        cfg.total_tokens != 0 ? cfg.total_tokens : appended;
    assert(total_tokens >= appended);
    // The table includes the chunk's own pages (and, for streaming heads,
    // stale locals whose eviction is deferred to end of chunk); the
    // kernels ignore entries at or past history_tokens.
    const kv::SelectedPageTable history =
        history_tokens == 0
            ? kv::SelectedPageTable{}
            : (streaming
                   ? cache.streaming_head(layer, kvh).index_table()
                   : kv::full_page_table(
                         cache.dense_head(layer, kvh).view(dense_alloc)));
    const kv::PageAllocator& alloc = streaming ? stream_alloc : dense_alloc;
    const num::ConstMatView kh = k.cols_slice(kvh * head_dim, head_dim);
    const num::ConstMatView vh = v.cols_slice(kvh * head_dim, head_dim);

    for (std::size_t g = 0; g < group; ++g) {
      const std::size_t h = kvh * group + g;
      const num::ConstMatView qh = q.cols_slice(h * head_dim, head_dim);
      num::MatView oh = out.cols_slice(h * head_dim, head_dim);
      if (streaming) {
        chunked_prefill_streaming_head(alloc, history, history_tokens,
                                       total_tokens, qh, kh, vh,
                                       cfg.streaming, cfg.tiling, scale, oh);
      } else if (cfg.dynamic_dense) {
        const BlockMask dyn = sparse::build_dynamic_prefill_mask(
            qh, kh, cfg.tiling, cfg.dynamic_cfg, scale);
        chunked_prefill_head(alloc, history, history_tokens, qh, kh, vh, dyn,
                             cfg.tiling, scale, oh);
      } else {
        chunked_prefill_head(alloc, history, history_tokens, qh, kh, vh,
                             causal, cfg.tiling, scale, oh);
      }
    }
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
          table = selector->get(slot, step, recompute);
        } else {
          table = recompute();
        }
      }
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
