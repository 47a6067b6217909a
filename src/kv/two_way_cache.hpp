// Two-way paged KV cache: separate paging systems for dense heads and
// streaming heads (LServe Fig 5).
//
// Dense (retrieval) heads keep every page and carry K_stats for the page
// selector. Streaming heads keep only the sink pages and a sliding window
// of local pages; middle pages are freed as soon as they fall fully outside
// the Λ mask, which is what makes streaming heads "nearly free" in memory
// and compute at long context. Their page table therefore only ever
// contains sink & local pages, and the decode kernel consumes it through
// the same SelectedPageTable interface as dynamically-pruned dense heads
// (the two-level indexing unification of §3.6).
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "kv/kv_cache.hpp"
#include "kv/page_allocator.hpp"
#include "kv/page_table.hpp"

namespace lserve::kv {

/// Static role of an attention head (decided offline, §3.3).
enum class HeadKind : std::uint8_t {
  kDense = 0,      ///< retrieval head: full KV history + K_stats.
  kStreaming = 1,  ///< streaming head: Λ mask (sinks + local window).
};

/// Λ-mask geometry for streaming heads, in tokens. Both quantities are
/// rounded up to whole pages internally.
struct StreamingConfig {
  std::size_t sink_tokens = 128;
  std::size_t local_tokens = 512;
};

/// KV storage of one streaming head: sink pages plus a ring of local pages.
class StreamingHeadCache {
 public:
  void append(PageAllocator& alloc, const StreamingConfig& cfg,
              const float* key, const float* value);

  /// Prefill write-back: appends with quantization round-trip (see
  /// Page::append_roundtrip) and — unlike append() — does NOT evict stale
  /// local pages. Chunked prefill appends the whole chunk before running
  /// attention; the boundary-window pages that early chunk rows still
  /// attend must stay alive until evict_stale() runs at end of chunk.
  void append_roundtrip(PageAllocator& alloc, const StreamingConfig& cfg,
                        float* key, float* value);

  /// Frees local pages whose entire block now precedes the Λ window.
  /// append() calls this eagerly; after append_roundtrip() the caller
  /// runs it once per chunk.
  void evict_stale(PageAllocator& alloc, const StreamingConfig& cfg);

  std::size_t tokens() const noexcept { return tokens_; }

  /// Prefix-cache attach: adopts the exact page set streaming state would
  /// hold after appending `tokens` tokens — `sinks` are blocks [0, |sinks|),
  /// `locals` are (block, page) pairs for retained trailing-window blocks
  /// in ascending block order. The caller owns one reference per page.
  /// Precondition: the head is empty.
  void attach(std::vector<PageId> sinks,
              const std::vector<std::pair<std::uint32_t, PageId>>& locals,
              std::size_t tokens) noexcept;

  /// The retained page covering logical block `block`, or kInvalidPage if
  /// that block has been evicted from the Λ window.
  PageId page_for_block(std::uint32_t block) const noexcept;

  /// Pages currently retained (sinks + local ring), as a pruned page table
  /// sorted by logical block — directly consumable by the decode kernel.
  SelectedPageTable index_table() const;

  /// Number of physical pages currently held.
  std::size_t pages_held() const noexcept {
    return sink_pages_.size() + local_pages_.size();
  }

  void release(PageAllocator& alloc) noexcept;

 private:
  struct LocalPage {
    std::uint32_t block;
    PageId page;
  };
  /// Allocates-on-boundary and returns a write pin on the page the next
  /// token lands in.
  PageWritePin append_page(PageAllocator& alloc, const StreamingConfig& cfg);
  std::vector<PageId> sink_pages_;     // blocks [0, sink_blocks)
  std::deque<LocalPage> local_pages_;  // trailing window
  std::size_t tokens_ = 0;
};

/// The per-sequence two-way cache across all layers and kv-heads.
///
/// Head roles are fixed at construction from the offline classifier output;
/// appends are routed to the dense or streaming pool accordingly.
class TwoWayKvCache {
 public:
  /// `kinds` is a [layers x kv_heads] row-major role table.
  TwoWayKvCache(std::size_t layers, std::size_t kv_heads,
                std::vector<HeadKind> kinds, StreamingConfig streaming_cfg);

  std::size_t layers() const noexcept { return layers_; }
  std::size_t kv_heads() const noexcept { return kv_heads_; }
  HeadKind kind(std::size_t layer, std::size_t h) const noexcept {
    return kinds_[layer * kv_heads_ + h];
  }

  /// Appends one token's K/V for one (layer, head); `dense_alloc` and
  /// `stream_alloc` may be the same pool or distinct pools (LServe uses
  /// distinct pools so streaming pages can skip K_stats storage).
  void append(PageAllocator& dense_alloc, PageAllocator& stream_alloc,
              std::size_t layer, std::size_t h, const float* key,
              const float* value);

  /// Prefill write-back variant: round-trips the row through the cache
  /// dtype (key/value hold the stored representation on return) and
  /// defers streaming eviction to evict_stale(). The chunked-prefill path
  /// appends the whole chunk, runs attention over the round-tripped rows
  /// plus the still-alive boundary window, then evicts — the ordering
  /// that makes prefill chunk-schedule-invariant.
  void append_roundtrip(PageAllocator& dense_alloc,
                        PageAllocator& stream_alloc, std::size_t layer,
                        std::size_t h, float* key, float* value);

  /// Frees stale local pages of one layer's streaming heads (the deferred
  /// half of append_roundtrip). No-op for dense heads.
  void evict_stale(PageAllocator& stream_alloc, std::size_t layer);

  /// Dense-head accessors (precondition: kind == kDense).
  const HeadCache& dense_head(std::size_t layer, std::size_t h) const;
  HeadCache& dense_head(std::size_t layer, std::size_t h);

  /// Streaming-head accessors (precondition: kind == kStreaming).
  const StreamingHeadCache& streaming_head(std::size_t layer,
                                           std::size_t h) const;
  StreamingHeadCache& streaming_head(std::size_t layer, std::size_t h);

  /// Tokens appended so far (uniform across heads).
  std::size_t tokens() const noexcept { return tokens_seen_; }

  /// Prefix-cache attach bookkeeping: records that the first `n` tokens
  /// arrived via page attach rather than append. Precondition: no tokens
  /// appended yet.
  void note_attached_tokens(std::size_t n) noexcept {
    assert(tokens_seen_ == 0);
    tokens_seen_ = n;
  }

  void release(PageAllocator& dense_alloc, PageAllocator& stream_alloc);

 private:
  std::size_t layers_;
  std::size_t kv_heads_;
  std::vector<HeadKind> kinds_;
  StreamingConfig streaming_cfg_;
  std::vector<HeadCache> dense_;
  std::vector<StreamingHeadCache> streaming_;
  std::size_t tokens_seen_ = 0;
};

}  // namespace lserve::kv
