// Cross-request KV reuse: a radix-style prefix cache over PageAllocator.
//
// The tree is keyed per logical *page* of prompt tokens: each node covers
// one token block of up to NP tokens (a full block everywhere except the
// tail, which may be a partial leaf) and holds one refcounted PageId per
// (layer, kv-head) slot — dense pages from the dense pool, streaming pages
// from the streaming pool. Insert (at sequence finish / preemption /
// cancel, *before* the sequence releases its pages) add_ref()s the
// sequence's pages into the tree; attach (at admission) add_ref()s full
// shared pages into a fresh sequence's TwoWayKvCache and resumes chunked
// prefill at the first uncached token. Shared pages are immutable by
// contract — a partially-filled tail page is never attached directly but
// copied copy-on-write (quantized codes + params verbatim, so outputs stay
// bit-identical to a cold prefill), as is any mid-page divergence.
//
// Streaming heads complicate reuse: their caches evict middle blocks as
// the Λ window slides, so the tree can only hold stream pages for blocks
// the inserting sequence still retained. An attach depth D is *feasible*
// only if every streaming block retained at D (sinks, plus locals with
// (b+1)*NP + local_tokens > D) has stream pages in the tree; attach picks
// the deepest feasible depth, falling back across block boundaries. The
// multi-turn workload this cache targets always matches at the previous
// insert depth, where the needed window equals the stored one.
//
// Eviction is LRU over leaves: insert enforces the configured max_pages
// budget, and reclaim() (called by the scheduler under page-budget
// pressure, before it resorts to preempting a running sequence) frees
// nodes whose pages the cache is the last holder of.
//
// Thread safety (machine-checked): every public method takes mu_; mu_ is
// acquired before the allocator's internal lock and never the reverse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "kv/page_allocator.hpp"
#include "kv/two_way_cache.hpp"
#include "serve/thread_annotations.hpp"

namespace lserve::kv {

/// Geometry the cache needs to mirror the engine's head partition.
struct PrefixCacheConfig {
  std::size_t layers = 0;
  std::size_t kv_heads = 0;
  /// [layers x kv_heads] row-major head roles (the engine's partition).
  std::vector<HeadKind> kinds;
  StreamingConfig streaming;
  /// Pages the tree may hold before insert-time LRU eviction kicks in
  /// (0 = unbounded; reclaim() still evicts under external pressure).
  std::size_t max_pages = 0;
};

/// Cumulative cache telemetry (mirrored into EngineStats).
struct PrefixCacheStats {
  std::size_t hits = 0;            ///< attaches that reused >= 1 token.
  std::size_t misses = 0;          ///< attaches that reused nothing.
  std::size_t tokens_reused = 0;   ///< prompt tokens skipped via attach.
  std::size_t cow_copies = 0;      ///< pages copied on write/divergence.
  std::size_t evictions = 0;       ///< tree nodes evicted (LRU / reclaim).
  std::size_t nodes = 0;           ///< current tree nodes.
  std::size_t pages_held = 0;      ///< page references the tree holds.
};

/// Token-block radix tree of refcounted KV pages shared across requests.
class PrefixCache {
 public:
  /// Both allocators must share one page_size. The cache holds references
  /// into them for its whole lifetime, so it must be destroyed first.
  PrefixCache(PageAllocator& dense, PageAllocator& stream,
              PrefixCacheConfig cfg);
  ~PrefixCache();

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// Tokens of `prompt` an attach() would reuse right now, capped at
  /// `max_tokens` — the deepest *feasible* match depth (streaming blocks
  /// accounted). Pure peek: no refcounts, no LRU touch, no counters.
  std::size_t match_tokens(std::span<const std::int32_t> prompt,
                           std::size_t max_tokens) const EXCLUDES(mu_);

  /// Maps shared pages for the longest feasible cached prefix of `prompt`
  /// (at most `max_tokens` tokens) into `cache`, add_ref()ing full pages
  /// and COW-copying the partial tail. Returns the attach depth D; the
  /// caller resumes prefill at token D. `cache` must be empty.
  std::size_t attach(std::span<const std::int32_t> prompt,
                     std::size_t max_tokens, TwoWayKvCache& cache)
      EXCLUDES(mu_);

  /// Shares `cache`'s pages for `tokens` into the tree. `tokens` MUST be
  /// the prefill-produced prefix of the sequence (its prompt, truncated
  /// to the prefilled position) — never tokens appended during
  /// decode: the sparse decode path writes numerically different K/V than
  /// a prefill of the same tokens, so caching decode-produced pages would
  /// break the attach path's bit-exactness guarantee. Must run before the
  /// sequence releases its pages, and after it will no longer append
  /// (terminal or preempted) — shared pages are immutable. Enforces
  /// max_pages.
  void insert(std::span<const std::int32_t> tokens,
              const TwoWayKvCache& cache) EXCLUDES(mu_);

  /// Evicts LRU nodes until ~`target_pages` pages were actually returned
  /// to the pools (only counting pages the cache was the last holder of).
  /// Nodes whose pages are all still shared with live sequences are
  /// skipped — evicting them frees nothing. Returns pages actually freed.
  std::size_t reclaim(std::size_t target_pages) EXCLUDES(mu_);

  /// Drops every node (used when the head partition changes).
  void clear() EXCLUDES(mu_);

  /// Page references currently held by the tree.
  std::size_t pages_held() const EXCLUDES(mu_);

  PrefixCacheStats stats() const EXCLUDES(mu_);

 private:
  /// One token block: `run` tokens (== page_size except for a partial
  /// leaf) and one page handle per head slot (kInvalidPage for streaming
  /// slots whose block had been evicted before insert).
  struct Node {
    std::vector<std::int32_t> run;
    std::vector<PageId> pages;  ///< [layers x kv_heads].
    std::uint32_t block = 0;
    std::uint64_t last_use = 0;
    bool has_stream = false;  ///< all streaming slots hold a page.
    Node* parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
  };

  /// The matched sources for a prompt: `srcs[b]` backs block b. All but
  /// the last cover a full block; the last may be matched only through
  /// `matched % page_size` tokens.
  struct Match {
    std::vector<Node*> srcs;
    std::size_t matched = 0;  ///< tokens matched (feasibility-unchecked).
  };

  Match match_locked(std::span<const std::int32_t> prompt,
                     std::size_t max_tokens) const REQUIRES(mu_);
  /// True iff every streaming block retained at depth D has stream pages.
  bool feasible_locked(const Match& m, std::size_t depth) const
      REQUIRES(mu_);
  /// Deepest feasible attach depth for `m` (full depth, else block
  /// boundaries descending, else 0).
  std::size_t best_depth_locked(const Match& m) const REQUIRES(mu_);
  /// Logical block b's page set survives at token depth D in a streaming
  /// head (sink, or still inside the local window).
  bool stream_block_retained(std::size_t block, std::size_t depth) const;
  std::size_t sink_blocks() const noexcept;

  /// Removes `leaf` from the tree, releasing its page references.
  /// Returns pages actually freed (refcount was 1). Bumps evictions.
  std::size_t evict_leaf_locked(Node* leaf) REQUIRES(mu_);
  /// LRU leaf scan. `require_freeable`: only leaves with >= 1 page the
  /// cache is the last holder of; `require_unshared`: all pages.
  Node* lru_leaf_locked(bool require_freeable, bool require_unshared) const
      REQUIRES(mu_);
  std::size_t node_valid_pages_locked(const Node& node) const REQUIRES(mu_);

  PageAllocator& dense_;
  PageAllocator& stream_;
  const PrefixCacheConfig cfg_;
  const std::size_t page_size_;
  const std::size_t slots_;

  mutable Mutex mu_;
  std::unique_ptr<Node> root_ GUARDED_BY(mu_);
  std::uint64_t clock_ GUARDED_BY(mu_) = 0;
  std::size_t pages_held_ GUARDED_BY(mu_) = 0;
  std::size_t nodes_ GUARDED_BY(mu_) = 0;
  PrefixCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace lserve::kv
