// The serving engine.
//
// One parameterized implementation covers LServe and every baseline: the
// EngineConfig decides KV precision and page geometry, the static head
// partition (streaming fraction), decode-stage dynamic page selection
// (flat or hierarchical, with reuse interval), and the prefill mask policy.
// Baseline presets live in baselines/baseline_engines.hpp; comparisons then
// vary only the policy, never the substrate — the paper's own methodology.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "attn/fused_attention.hpp"
#include "kv/memory_config.hpp"
#include "kv/page_allocator.hpp"
#include "kv/prefix_cache.hpp"
#include "model/model_config.hpp"
#include "model/transformer.hpp"
#include "serve/attention_policy.hpp"
#include "serve/sequence.hpp"
#include "sparse/head_classifier.hpp"

namespace lserve::serve {

class ThreadPool;

/// Everything that distinguishes one serving system from another.
struct EngineConfig {
  model::ModelConfig model;

  /// Dense-head page geometry: NP (page_size), NL (logical_page_size),
  /// KV precision. Streaming-head pages share NP but skip K_stats.
  kv::PageConfig dense_pages;
  kv::StreamingConfig streaming{/*sink_tokens=*/64, /*local_tokens=*/256};
  double streaming_fraction = 0.5;  ///< fraction of kv heads made streaming.

  bool dynamic_decode = true;   ///< decode-stage page pruning (dense heads).
  bool hierarchical = true;     ///< hierarchical vs flat page scoring.
  sparse::PageSelectorConfig selector;  ///< token budget etc.
  std::size_t reuse_interval = 4;       ///< selector reuse chunk C.

  attn::PrefillTiling tiling{/*tile_q=*/64, /*tile_k=*/64};
  /// Prefill long prompts in chunks of this many tokens, each attending
  /// to the already-cached history through the paged tables (bounds
  /// activation memory). 0 = monolithic prefill.
  std::size_t prefill_chunk_tokens = 0;
  bool dynamic_prefill = false;  ///< MInference-style prefill mask.
  sparse::DynamicPrefillConfig dynamic_prefill_cfg;

  std::size_t pool_pages = 2048;  ///< initial page-pool capacity.
  std::uint64_t seed = 42;

  /// Cross-request KV reuse: radix prefix cache over the page pools
  /// (kv/prefix_cache.hpp). Off by default — when off, every path is
  /// bit-identical to the pre-cache engine.
  bool enable_prefix_cache = false;
  /// Consolidated memory knobs (kv/memory_config.hpp). The engine consumes
  /// memory.prefix_cache_pages (prefix-tree page budget, 0 = unbounded) and
  /// memory.hot_pages / memory.cold_bytes (the dense pool's two-tier spill
  /// config; hot_pages = 0 leaves tiering off and every path bit-identical
  /// to the untiered engine). memory.page_budget belongs to the scheduler
  /// (SchedulerConfig::memory) — kept in the same struct so argv/bench
  /// plumbing hands one object to both layers.
  kv::MemoryConfig memory;

  /// Per-step decode routing (serve/attention_policy.hpp). Null = run as
  /// configured (the kSparse route) — bit-identical to the pre-policy
  /// engine. Swappable at runtime via Engine::set_attention_policy().
  std::shared_ptr<const AttentionPolicy> policy;
};

/// Worst-case page-pool demand of a request, split by pool. Computed from
/// the head partition and streaming geometry; the scheduler compares it
/// against a page budget for admission control.
struct PageDemand {
  std::size_t dense_pages = 0;
  std::size_t stream_pages = 0;
  std::size_t total() const noexcept { return dense_pages + stream_pages; }
};

/// Cumulative engine telemetry; also feeds the GPU cost model.
struct EngineStats {
  std::size_t prefill_tokens = 0;
  std::size_t decode_steps = 0;
  /// Attention-policy gating decisions: decode steps routed to full-context
  /// dense reads vs the configured (sparse-capable) pipeline. They sum to
  /// decode_steps; with no policy attached every step counts as sparse.
  std::size_t decode_dense_steps = 0;
  std::size_t decode_sparse_steps = 0;
  std::size_t pages_visited = 0;   ///< decode attention page iterations.
  std::size_t tokens_visited = 0;  ///< decode attention token iterations.
  std::size_t selector_runs = 0;
  std::size_t selector_reuses = 0;
  std::size_t sequences_created = 0;   ///< create_sequence() calls.
  std::size_t sequences_released = 0;  ///< release_sequence() calls — equal
                                       ///< when no sequence is live.
  // Prefix-cache counters live in kv::PrefixCacheStats (prefix_cache()).
};

/// Long-sequence serving engine with unified sparse attention.
class Engine {
 public:
  explicit Engine(EngineConfig cfg);

  const EngineConfig& config() const noexcept { return cfg_; }
  const model::Transformer& transformer() const noexcept { return tf_; }
  const std::vector<kv::HeadKind>& head_kinds() const noexcept {
    return head_kinds_;
  }

  /// Overrides the offline head partition ([layers x kv_heads] row-major).
  void set_head_kinds(std::vector<kv::HeadKind> kinds);

  /// Swaps the decode routing policy (null = run as configured). Takes
  /// effect at the next decode step; safe between decode_batch calls, not
  /// during one. Route flips mid-sequence are safe: the reusable selector
  /// re-scores whenever its cached chunk goes stale, so a sparse step
  /// after a dense stretch never reads stale page choices.
  void set_attention_policy(std::shared_ptr<const AttentionPolicy> policy) {
    policy_ = std::move(policy);
  }

  /// Runs the synthetic-calibration gate measurement (DESIGN.md §2) and
  /// re-partitions heads at cfg.streaming_fraction. Returns the gates.
  std::vector<float> calibrate_head_kinds();

  /// Creates an empty sequence; caller feeds it via prefill()/decode().
  SequenceId create_sequence();
  void release_sequence(SequenceId id);
  Sequence& sequence(SequenceId id) { return *sequences_[id]; }
  const Sequence& sequence(SequenceId id) const { return *sequences_[id]; }

  /// Prefills `ids` and returns the first generated token (greedy).
  /// Convenience wrapper over the resumable API below, chunking internally
  /// by cfg.prefill_chunk_tokens (0 = monolithic).
  std::int32_t prefill(SequenceId id, std::span<const std::int32_t> ids);

  /// Resumable incremental prefill, driven chunk-by-chunk by the scheduler
  /// so one long prompt never monopolizes an iteration:
  ///
  ///   begin_prefill(id, n);          // kWaiting -> kPrefilling
  ///   while (prefill_chunk(id, next_ids) > 0) { ... other work ... }
  ///   first_token = finish_prefill(id);  // kPrefilling -> kDecoding
  ///
  /// Chunks run through the same fused_chunked_prefill path as prefill()
  /// (each chunk attends to the already-cached history), so any chunking
  /// schedule is bit-identical to a monolithic prefill.
  void begin_prefill(SequenceId id, std::size_t total_tokens);

  /// Feeds the next chunk of prompt tokens; returns tokens still owed.
  /// The final chunk (return value 0) also computes the first generated
  /// token, which finish_prefill() returns. With a non-null `pool` each
  /// layer's row-wise linears run over row blocks and its attention over
  /// (query head, q-tile) tasks on the pool; every row is computed whole
  /// inside one task, so pages, outputs and stats are bit-identical to the
  /// serial path at any thread count. KV write-back and streaming eviction
  /// stay serial, in token order, on the calling thread.
  std::size_t prefill_chunk(SequenceId id, std::span<const std::int32_t> ids,
                            ThreadPool* pool = nullptr);

  /// Completes an incremental prefill (all tokens fed) and returns the
  /// first generated token (greedy).
  std::int32_t finish_prefill(SequenceId id);

  /// Appends `token` and returns the next token (one decode step).
  std::int32_t decode(SequenceId id, std::int32_t token);

  /// One decode step for every sequence in `ids` (feeding `tokens[i]` to
  /// `ids[i]`), returning the next token per sequence in input order.
  /// With a non-null `pool` the per-sequence forwards run concurrently;
  /// results and stats are bit-identical to the serial path: each sequence
  /// only touches its own state plus the (thread-safe) page allocators,
  /// and per-call DecodeWorkStats scratch counters are merged into
  /// EngineStats in sequence order after the join.
  ///
  /// Exception contract: if any per-sequence forward throws (page pool
  /// exhausted at its hard cap, allocation failure), the first exception
  /// propagates after the join and the sequences of this batch are left
  /// mid-step — there is no way to resume a half-forwarded sequence, so
  /// callers must treat the engine as poisoned and stop serving from it.
  std::vector<std::int32_t> decode_batch(std::span<const SequenceId> ids,
                                         std::span<const std::int32_t> tokens,
                                         ThreadPool* pool = nullptr);

  /// Convenience: prefill + n greedy decode steps.
  std::vector<std::int32_t> generate(SequenceId id,
                                     std::span<const std::int32_t> prompt,
                                     std::size_t n_tokens);

  const EngineStats& stats() const noexcept { return stats_; }
  kv::PageAllocator& dense_allocator() noexcept { return dense_alloc_; }
  kv::PageAllocator& stream_allocator() noexcept { return stream_alloc_; }

  /// True when the dense pool runs the two-tier (hot RAM + cold spill)
  /// store (EngineConfig::memory.hot_pages > 0).
  bool tiered() const noexcept { return dense_alloc_.tiered(); }
  /// Tier telemetry of the dense pool (all-zero when tiering is off).
  kv::TierStats tier_stats() const noexcept {
    return dense_alloc_.tier_stats();
  }
  /// Hot-resident pages across both pools — the admission-control view
  /// under tiering: cold pages occupy spill-file bytes, not RAM, so the
  /// scheduler charges only the hot tier against its page budget.
  /// Equals total_pages_in_use() when tiering is off.
  std::size_t hot_pages_in_use() const noexcept {
    return dense_alloc_.hot_pages_in_use() + stream_alloc_.hot_pages_in_use();
  }

  /// Device bytes currently held by KV pages (memory-saving accounting).
  double kv_device_bytes() const noexcept;

  /// LSERVE_AUDIT builds: per-page leak attribution across both pools
  /// (see kv/page_auditor.hpp). Empty when clean or when auditing is
  /// compiled out.
  std::string audit_report() const {
    return dense_alloc_.audit_report() + stream_alloc_.audit_report();
  }

  /// Pages currently held across both pools (admission-control occupancy).
  std::size_t total_pages_in_use() const noexcept;

  /// Combined occupancy snapshot of both pools (dense + streaming fields
  /// summed; each pool snapshotted coherently under its own lock) — what
  /// the scheduler publishes as the page-pool gauges every step.
  kv::PageAllocator::Occupancy pool_occupancy() const noexcept;

  /// Worst-case pages a request totalling `total_tokens` (prompt +
  /// max_new_tokens) can occupy, given the current head partition.
  /// Streaming heads are capped by their sink + local-window geometry.
  PageDemand estimate_request_pages(std::size_t total_tokens) const noexcept;

  /// As above, but discounting pages a prefix-cache attach at depth
  /// `cached_tokens` would share instead of allocate — the admission-side
  /// view that lets a cache hit count only its uncached suffix.
  PageDemand estimate_request_pages(std::size_t total_tokens,
                                    std::size_t cached_tokens) const noexcept;

  /// Prompt tokens an attach_prefix() for `prompt` would reuse right now
  /// (0 when the cache is disabled). Capped at prompt.size() - 1 so at
  /// least one token is always prefilled (the first generated token comes
  /// from its readout). Peek only — no refcounts or counters move.
  std::size_t prefix_match_tokens(
      std::span<const std::int32_t> prompt) const;

  /// Maps the longest feasible cached prefix of `prompt` into sequence
  /// `id`'s KV cache and advances its position past the reused tokens.
  /// Returns the tokens reused; the caller prefills only the suffix.
  /// Must run on a fresh sequence (kWaiting, position 0), before
  /// begin_prefill(). No-op (0) when the cache is disabled.
  std::size_t attach_prefix(SequenceId id,
                            std::span<const std::int32_t> prompt);

  /// Shares sequence `id`'s KV pages for `tokens` — which must be its
  /// PREFILL-produced prefix (the prompt up to the prefilled position),
  /// never decode-produced tokens, whose K/V differ numerically
  /// from a prefill of the same ids — into the prefix cache. Call at
  /// terminal/preemption points, after the last append and before
  /// release_sequence(). No-op when disabled.
  void insert_prefix(SequenceId id, std::span<const std::int32_t> tokens);

  /// Evicts prefix-cache entries until ~`target_pages` pages returned to
  /// the pools (see PrefixCache::reclaim). Returns pages actually freed;
  /// 0 when the cache is disabled.
  std::size_t reclaim_prefix_pages(std::size_t target_pages);

  /// Page references the prefix cache holds (0 when disabled) — the
  /// intentional steady-state occupancy admission and audit-quiescence
  /// checks must discount.
  std::size_t prefix_cache_pages_held() const;

  /// Null when EngineConfig::enable_prefix_cache is off.
  const kv::PrefixCache* prefix_cache() const noexcept {
    return prefix_cache_.get();
  }

  /// Upper bound on new pages one decode step of one sequence can allocate
  /// (every head crosses a page boundary at once, since token counts are
  /// uniform across heads).
  std::size_t decode_step_page_bound() const noexcept {
    return cfg_.model.layers * cfg_.model.kv_heads;
  }

 private:
  /// Runs all transformer layers over `hidden` ([n x hidden]) in prefill
  /// mode, appending K/V to sequence `id`'s caches from its current
  /// position on (see prefill_chunk for `pool`).
  void forward_prefill(SequenceId id, num::Tensor& hidden, ThreadPool* pool);
  /// One transformer forward in decode mode, on the given attention
  /// route. Work counters go to `work`, never to stats_ — callers merge,
  /// so concurrent decode_one calls on distinct sequences are race-free.
  void forward_decode(Sequence& seq, num::Tensor& hidden,
                      AttentionRoute route, attn::DecodeWorkStats& work);

  /// Decodes one token for `seq` without touching stats_ (thread-safe for
  /// distinct sequences).
  std::int32_t decode_one(Sequence& seq, std::int32_t token,
                          attn::DecodeWorkStats& work);

  /// Recomputes the selector run/reuse totals from all live sequences.
  void refresh_selector_stats();

  /// (Re)builds the prefix cache for the current head partition; any
  /// partition change invalidates every cached page set.
  void rebuild_prefix_cache();

  attn::FusedPrefillConfig prefill_config() const;
  attn::FusedDecodeConfig decode_config(AttentionRoute route) const;

  /// Recounts dense_slots_/stream_slots_ from head_kinds_ (call after any
  /// partition change).
  void recount_head_slots() noexcept;

  EngineConfig cfg_;
  model::Transformer tf_;
  kv::PageAllocator dense_alloc_;
  kv::PageAllocator stream_alloc_;
  /// Declared after the allocators (destroyed first) so its destructor can
  /// still release the page references it holds.
  std::unique_ptr<kv::PrefixCache> prefix_cache_;
  std::vector<kv::HeadKind> head_kinds_;
  std::size_t dense_slots_ = 0;   ///< dense entries in head_kinds_.
  std::size_t stream_slots_ = 0;  ///< streaming entries in head_kinds_.
  std::vector<std::unique_ptr<Sequence>> sequences_;
  EngineStats stats_;
  /// Decode routing policy; null routes every step kSparse (as
  /// configured). Read per decode step from pool workers — treat as
  /// frozen during a decode_batch call.
  std::shared_ptr<const AttentionPolicy> policy_;
};

}  // namespace lserve::serve
