#include "serve/engine.hpp"

#include <cassert>
#include <cmath>
#include <functional>

#include "model/workload.hpp"
#include "numeric/math.hpp"
#include "numeric/rng.hpp"
#include "serve/thread_pool.hpp"

namespace lserve::serve {
namespace {

kv::PageConfig make_stream_pages(const kv::PageConfig& dense) {
  kv::PageConfig cfg = dense;
  cfg.track_kstats = false;  // streaming pages carry no selector stats.
  cfg.logical_page_size = cfg.page_size;
  return cfg;
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_([&] {
        // Normalize the page geometry against the model before anything
        // else is constructed from it.
        cfg.dense_pages.head_dim = cfg.model.head_dim;
        if (cfg.dense_pages.logical_page_size == 0 ||
            cfg.dense_pages.page_size % cfg.dense_pages.logical_page_size !=
                0) {
          cfg.dense_pages.logical_page_size = cfg.dense_pages.page_size;
        }
        return cfg;
      }()),
      tf_(cfg_.model, cfg_.seed),
      dense_alloc_(cfg_.dense_pages, cfg_.pool_pages,
                   kv::TierConfig{/*hot_pages=*/cfg_.memory.hot_pages,
                                  /*cold_bytes=*/cfg_.memory.cold_bytes}),
      stream_alloc_(make_stream_pages(cfg_.dense_pages), cfg_.pool_pages),
      policy_(cfg_.policy) {
  // Default partition: deterministic round-robin at streaming_fraction.
  // calibrate_head_kinds() or set_head_kinds() refine this.
  const std::size_t slots = cfg_.model.layers * cfg_.model.kv_heads;
  head_kinds_.assign(slots, kv::HeadKind::kDense);
  const auto target = static_cast<std::size_t>(
      std::round(cfg_.streaming_fraction * static_cast<double>(slots)));
  if (target > 0) {
    const double stride =
        static_cast<double>(slots) / static_cast<double>(target);
    for (std::size_t i = 0; i < target; ++i) {
      const auto idx = static_cast<std::size_t>(i * stride);
      head_kinds_[idx < slots ? idx : slots - 1] = kv::HeadKind::kStreaming;
    }
  }
  recount_head_slots();
  rebuild_prefix_cache();
}

void Engine::rebuild_prefix_cache() {
  prefix_cache_.reset();
  if (!cfg_.enable_prefix_cache) return;
  kv::PrefixCacheConfig pc;
  pc.layers = cfg_.model.layers;
  pc.kv_heads = cfg_.model.kv_heads;
  pc.kinds = head_kinds_;
  pc.streaming = cfg_.streaming;
  pc.max_pages = cfg_.memory.prefix_cache_pages;
  prefix_cache_ = std::make_unique<kv::PrefixCache>(dense_alloc_,
                                                    stream_alloc_,
                                                    std::move(pc));
}

void Engine::recount_head_slots() noexcept {
  dense_slots_ = 0;
  for (const kv::HeadKind k : head_kinds_) {
    if (k == kv::HeadKind::kDense) ++dense_slots_;
  }
  stream_slots_ = head_kinds_.size() - dense_slots_;
}

void Engine::set_head_kinds(std::vector<kv::HeadKind> kinds) {
  assert(kinds.size() == cfg_.model.layers * cfg_.model.kv_heads);
  head_kinds_ = std::move(kinds);
  recount_head_slots();
  // A partition change invalidates every cached page set (the tree's page
  // roles no longer match new sequences'); rebuild empty.
  rebuild_prefix_cache();
}

std::vector<float> Engine::calibrate_head_kinds() {
  // Synthetic calibration (see DESIGN.md §2): each head gets a planted
  // stream; heads whose stream carries a long-range needle suffer high
  // distortion under the Λ mask and emerge as retrieval heads. The planted
  // heterogeneity alternates by head index, mirroring the roughly-even
  // retrieval/streaming split DuoAttention finds in real models.
  const std::size_t slots = cfg_.model.layers * cfg_.model.kv_heads;
  const std::size_t d = cfg_.model.head_dim;
  const std::size_t n = cfg_.streaming.sink_tokens +
                        cfg_.streaming.local_tokens + 256;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const float strength = model::salient_strength(n, d);
  // For local heads the query is a scaled copy of the current key (norm
  // ~cfg.key_scale), so the alignment strength is strength^2 / |k|.
  const float local_gain = strength * strength;
  std::vector<float> gates(slots, 0.0f);
  for (std::size_t i = 0; i < slots; ++i) {
    model::StreamConfig sc;
    sc.n_tokens = n;
    sc.head_dim = d;
    sc.seed = num::split_seed(cfg_.seed, 1000 + i);
    model::TokenStream stream = model::smooth_stream(sc);
    const bool retrieval_like = (i % 2) == 0;
    num::Tensor queries(n, d);
    if (retrieval_like) {
      // Needle in the middle of the context, outside the Λ mask of the
      // later rows: a head that needs it is a retrieval head.
      const model::Needle needle =
          model::plant_needle(stream, /*pos=*/n / 2, strength, sc.seed);
      for (std::size_t t = 0; t < n; ++t) {
        const auto q = model::probe_query(needle, strength, 0.1f,
                                          num::split_seed(sc.seed, t));
        std::copy(q.begin(), q.end(), queries.row(t));
      }
    } else {
      // Locally-supported head: queries track the recent key walk with
      // enough gain that local tokens dominate the softmax.
      for (std::size_t t = 0; t < n; ++t) {
        const float* recent = stream.keys.row(t);
        float* q = queries.row(t);
        for (std::size_t c = 0; c < d; ++c) {
          q[c] = local_gain * recent[c];
        }
      }
    }
    gates[i] = sparse::measure_head_gate(
        queries.view(), stream.keys.view(), stream.values.view(),
        cfg_.streaming.sink_tokens, cfg_.streaming.local_tokens, scale);
  }
  head_kinds_ =
      sparse::classify_by_quantile(gates, cfg_.streaming_fraction);
  recount_head_slots();
  rebuild_prefix_cache();
  return gates;
}

SequenceId Engine::create_sequence() {
  ++stats_.sequences_created;
  // Reuse a released slot if available.
  for (std::size_t i = 0; i < sequences_.size(); ++i) {
    if (sequences_[i] == nullptr) {
      sequences_[i] = std::make_unique<Sequence>(
          cfg_.model.layers, cfg_.model.kv_heads, head_kinds_,
          cfg_.streaming, cfg_.reuse_interval);
      return i;
    }
  }
  sequences_.push_back(std::make_unique<Sequence>(
      cfg_.model.layers, cfg_.model.kv_heads, head_kinds_, cfg_.streaming,
      cfg_.reuse_interval));
  return sequences_.size() - 1;
}

void Engine::release_sequence(SequenceId id) {
  ++stats_.sequences_released;
  assert(id < sequences_.size() && sequences_[id] != nullptr);
  const kv::PageAuditScope audit(id, "Engine::release_sequence");
  sequences_[id]->cache.release(dense_alloc_, stream_alloc_);
  sequences_[id].reset();
}

attn::FusedPrefillConfig Engine::prefill_config() const {
  attn::FusedPrefillConfig pc;
  pc.tiling = cfg_.tiling;
  pc.streaming.sink_blocks =
      (cfg_.streaming.sink_tokens + cfg_.tiling.tile_k - 1) /
      cfg_.tiling.tile_k;
  pc.streaming.local_blocks =
      std::max<std::size_t>(1, (cfg_.streaming.local_tokens +
                                cfg_.tiling.tile_k - 1) /
                                   cfg_.tiling.tile_k);
  pc.dynamic_dense = cfg_.dynamic_prefill;
  pc.dynamic_cfg = cfg_.dynamic_prefill_cfg;
  return pc;
}

attn::FusedDecodeConfig Engine::decode_config(AttentionRoute route) const {
  attn::FusedDecodeConfig dc;
  // The route's only lever: dense-head page pruning. kDense forces the
  // full page table; kSparse runs whatever the config asks for. The
  // streaming-head split is storage-level and never gated.
  dc.dynamic_dense =
      cfg_.dynamic_decode && route == AttentionRoute::kSparse;
  dc.hierarchical = cfg_.hierarchical;
  dc.selector = cfg_.selector;
  return dc;
}

void Engine::forward_prefill(SequenceId id, num::Tensor& hidden,
                             ThreadPool* pool) {
  Sequence& seq = *sequences_[id];
  const std::size_t pos0 = seq.position;
  const std::size_t n = hidden.rows();
  const std::size_t h = cfg_.model.hidden();
  const std::size_t kvd = cfg_.model.kv_dim();
  const std::size_t d = cfg_.model.head_dim;
  attn::FusedPrefillConfig pc = prefill_config();
  // Absolute Λ geometry: position + prefill_remaining is the full prompt
  // length regardless of how it is chunked or how much a prefix-cache
  // attach already covered.
  pc.total_tokens = seq.position + seq.prefill_remaining;

  // Runs fn(i) for every i in [0, count), on the pool when there is one.
  // The audit scope is thread-local, so each task opens its own.
  const attn::ParallelFor on_pool =
      [&](std::size_t count, const std::function<void(std::size_t)>& fn) {
        const std::function<void(std::size_t)> task = [&](std::size_t i) {
          const kv::PageAuditScope audit(id, "Engine::prefill_chunk");
          fn(i);
        };
        if (pool != nullptr && pool->size() > 1 && count > 1) {
          pool->parallel_for(count, task);
        } else {
          for (std::size_t i = 0; i < count; ++i) task(i);
        }
      };
  // Row-wise ops over one contiguous row block per pool thread.
  const std::size_t blocks =
      std::min(n, pool != nullptr ? pool->size() : std::size_t{1});
  const auto for_each_row_block = [&](const auto& fn) {
    on_pool(blocks, [&](std::size_t b) {
      const std::size_t r0 = n * b / blocks;
      fn(r0, n * (b + 1) / blocks - r0);
    });
  };

  num::Tensor normed(n, h);
  num::Tensor q(n, h);
  num::Tensor k(n, kvd);
  num::Tensor v(n, kvd);
  num::Tensor attn_out(n, h);

  for (std::size_t layer = 0; layer < cfg_.model.layers; ++layer) {
    for_each_row_block([&](std::size_t r0, std::size_t rows) {
      tf_.rms_norm(hidden.view().rows_slice(r0, rows), layer,
                   normed.view().rows_slice(r0, rows));
      tf_.qkv_project(normed.view().rows_slice(r0, rows), layer, pos0 + r0,
                      q.view().rows_slice(r0, rows),
                      k.view().rows_slice(r0, rows),
                      v.view().rows_slice(r0, rows));
    });

    // KV write-back first (the paper's two quantized write-back kernels):
    // attention then reads the chunk's own K/V back from the pages, the
    // same bits a later chunk or a prefix-cache attach reads. Streaming
    // eviction is deferred so early chunk rows can still attend the pages
    // that were inside the Λ window at the chunk boundary.
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t kvh = 0; kvh < cfg_.model.kv_heads; ++kvh) {
        seq.cache.append_roundtrip(dense_alloc_, stream_alloc_, layer, kvh,
                                   k.row(t) + kvh * d, v.row(t) + kvh * d);
      }
    }

    attn::fused_chunked_prefill(dense_alloc_, stream_alloc_, seq.cache,
                                layer, q.view(), k.view(), v.view(), d, pc,
                                attn_out.view(), on_pool);

    seq.cache.evict_stale(stream_alloc_, layer);

    for_each_row_block([&](std::size_t r0, std::size_t rows) {
      const num::MatView hidden_rows = hidden.view().rows_slice(r0, rows);
      tf_.output_project(attn_out.view().rows_slice(r0, rows), layer,
                         hidden_rows);
      tf_.ffn(hidden_rows, layer);
    });
  }
  stats_.prefill_tokens += n;
}

void Engine::forward_decode(Sequence& seq, num::Tensor& hidden,
                            AttentionRoute route,
                            attn::DecodeWorkStats& work) {
  const std::size_t h = cfg_.model.hidden();
  const std::size_t kvd = cfg_.model.kv_dim();
  const std::size_t d = cfg_.model.head_dim;
  const attn::FusedDecodeConfig dc = decode_config(route);

  num::Tensor normed(1, h);
  num::Tensor q(1, h);
  num::Tensor k(1, kvd);
  num::Tensor v(1, kvd);
  num::Tensor attn_out(1, h);

  for (std::size_t layer = 0; layer < cfg_.model.layers; ++layer) {
    tf_.rms_norm(hidden.view(), layer, normed.view());
    tf_.qkv_project(normed.view(), layer, seq.position, q.view(), k.view(),
                    v.view());
    for (std::size_t kvh = 0; kvh < cfg_.model.kv_heads; ++kvh) {
      seq.cache.append(dense_alloc_, stream_alloc_, layer, kvh,
                       k.row(0) + kvh * d, v.row(0) + kvh * d);
    }
    // Reinterpret the packed q row as [q_heads x d].
    const num::ConstMatView q_heads{q.data(), cfg_.model.q_heads, d, d};
    num::MatView out_heads{attn_out.data(), cfg_.model.q_heads, d, d};
    attn::fused_sparse_decode(dense_alloc_, stream_alloc_, seq.cache, layer,
                              q_heads, cfg_.model.group_size(),
                              &seq.selector, seq.decode_step, dc, out_heads,
                              &work);
    tf_.output_project(attn_out.view(), layer, hidden.view());
    tf_.ffn(hidden.view(), layer);
  }
}

std::int32_t Engine::prefill(SequenceId id,
                             std::span<const std::int32_t> ids) {
  begin_prefill(id, ids.size());
  const std::size_t chunk = cfg_.prefill_chunk_tokens == 0
                                ? ids.size()
                                : cfg_.prefill_chunk_tokens;
  for (std::size_t begin = 0; begin < ids.size(); begin += chunk) {
    prefill_chunk(id, ids.subspan(begin, std::min(chunk, ids.size() - begin)));
  }
  return finish_prefill(id);
}

void Engine::begin_prefill(SequenceId id, std::size_t total_tokens) {
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kWaiting && total_tokens > 0);
  // A prefix-cache attach may already have advanced position past the
  // reused prefix; only the uncached suffix is still owed (attach caps at
  // total_tokens - 1, so at least one token always remains).
  assert(total_tokens > seq.position);
  seq.phase = SequencePhase::kPrefilling;
  seq.prefill_remaining = total_tokens - seq.position;
}

std::size_t Engine::prefill_chunk(SequenceId id,
                                  std::span<const std::int32_t> ids,
                                  ThreadPool* pool) {
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kPrefilling);
  assert(!ids.empty() && ids.size() <= seq.prefill_remaining);
  const kv::PageAuditScope audit(id, "Engine::prefill_chunk");
  num::Tensor hidden = tf_.embed(ids);
  forward_prefill(id, hidden, pool);
  seq.position += ids.size();
  seq.prefill_remaining -= ids.size();
  if (seq.prefill_remaining == 0) {
    seq.last_token = tf_.readout_argmax(hidden.row(ids.size() - 1));
  }
  return seq.prefill_remaining;
}

std::int32_t Engine::finish_prefill(SequenceId id) {
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kPrefilling &&
         seq.prefill_remaining == 0);
  seq.phase = SequencePhase::kDecoding;
  return seq.last_token;
}

std::int32_t Engine::decode_one(Sequence& seq, std::int32_t token,
                                attn::DecodeWorkStats& work) {
  assert(seq.phase == SequencePhase::kDecoding);
  const std::int32_t ids[1] = {token};
  num::Tensor hidden = tf_.embed(ids);
  // The step's attention spans position + 1 tokens (history plus the
  // token appended below). The route is a pure function of that length,
  // so it is identical across decode threads and preemption replay.
  const AttentionRoute route =
      policy_ == nullptr ? AttentionRoute::kSparse
                         : policy_->route(seq.position + 1);
  if (route == AttentionRoute::kDense) {
    ++work.dense_route_steps;
  } else {
    ++work.sparse_route_steps;
  }
  forward_decode(seq, hidden, route, work);
  seq.position += 1;
  ++seq.decode_step;
  const std::int32_t next = tf_.readout_argmax(hidden.row(0));
  seq.last_token = next;
  return next;
}

void Engine::refresh_selector_stats() {
  stats_.selector_runs = 0;
  stats_.selector_reuses = 0;
  for (const auto& s : sequences_) {
    if (s != nullptr) {
      stats_.selector_runs += s->selector.selector_runs();
      stats_.selector_reuses += s->selector.reuses();
    }
  }
}

std::int32_t Engine::decode(SequenceId id, std::int32_t token) {
  return decode_batch(std::span<const SequenceId>(&id, 1),
                      std::span<const std::int32_t>(&token, 1))[0];
}

std::vector<std::int32_t> Engine::decode_batch(
    std::span<const SequenceId> ids, std::span<const std::int32_t> tokens,
    ThreadPool* pool) {
  assert(ids.size() == tokens.size());
  std::vector<std::int32_t> next(ids.size(), -1);
  std::vector<attn::DecodeWorkStats> work(ids.size());
  const auto run = [&](std::size_t i) {
    // The audit scope is per-sequence and thread-local, so it tags pages
    // correctly whether this lambda runs inline or on a pool worker.
    const kv::PageAuditScope audit(ids[i], "Engine::decode");
    next[i] = decode_one(*sequences_[ids[i]], tokens[i], work[i]);
  };
  if (pool != nullptr && pool->size() > 1 && ids.size() > 1) {
    pool->parallel_for(ids.size(), run);
  } else {
    for (std::size_t i = 0; i < ids.size(); ++i) run(i);
  }
  // Merge after the join, in sequence order, so cumulative telemetry is
  // bit-identical to decoding the batch serially.
  for (const auto& w : work) {
    stats_.pages_visited += w.pages_visited;
    stats_.tokens_visited += w.tokens_visited;
    stats_.decode_dense_steps += w.dense_route_steps;
    stats_.decode_sparse_steps += w.sparse_route_steps;
    ++stats_.decode_steps;
  }
  refresh_selector_stats();
  return next;
}

std::vector<std::int32_t> Engine::generate(
    SequenceId id, std::span<const std::int32_t> prompt,
    std::size_t n_tokens) {
  std::vector<std::int32_t> out;
  out.reserve(n_tokens);
  std::int32_t tok = prefill(id, prompt);
  out.push_back(tok);
  for (std::size_t i = 1; i < n_tokens; ++i) {
    tok = decode(id, tok);
    out.push_back(tok);
  }
  sequence(id).generated = out;
  sequence(id).phase = SequencePhase::kFinished;
  return out;
}

double Engine::kv_device_bytes() const noexcept {
  return dense_alloc_.device_bytes_in_use() +
         stream_alloc_.device_bytes_in_use();
}

std::size_t Engine::total_pages_in_use() const noexcept {
  return dense_alloc_.pages_in_use() + stream_alloc_.pages_in_use();
}

kv::PageAllocator::Occupancy Engine::pool_occupancy() const noexcept {
  const kv::PageAllocator::Occupancy dense = dense_alloc_.occupancy();
  const kv::PageAllocator::Occupancy stream = stream_alloc_.occupancy();
  kv::PageAllocator::Occupancy sum;
  sum.capacity = dense.capacity + stream.capacity;
  sum.in_use = dense.in_use + stream.in_use;
  sum.free = dense.free + stream.free;
  sum.peak_in_use = dense.peak_in_use + stream.peak_in_use;
  sum.hot_in_use = dense.hot_in_use + stream.hot_in_use;
  sum.cold_in_use = dense.cold_in_use + stream.cold_in_use;
  return sum;
}

PageDemand Engine::estimate_request_pages(
    std::size_t total_tokens) const noexcept {
  const std::size_t full = dense_alloc_.pages_for_tokens(total_tokens);
  // A streaming head holds its sink pages plus the local ring, which spans
  // the window rounded up to pages plus the page being filled.
  const std::size_t stream_cap = std::min(
      stream_alloc_.pages_for_tokens(total_tokens),
      stream_alloc_.pages_for_tokens(cfg_.streaming.sink_tokens) +
          stream_alloc_.pages_for_tokens(cfg_.streaming.local_tokens) + 1);
  return {dense_slots_ * full, stream_slots_ * stream_cap};
}

PageDemand Engine::estimate_request_pages(
    std::size_t total_tokens, std::size_t cached_tokens) const noexcept {
  PageDemand d = estimate_request_pages(total_tokens);
  if (cached_tokens == 0) return d;
  // Only *full* blocks are shared (the tail is COW-copied, which does
  // allocate), and shared pages are already counted in pool occupancy —
  // a hit adds no new allocation for them.
  const std::size_t np = dense_alloc_.config().page_size;
  const std::size_t full_blocks = cached_tokens / np;
  const std::size_t dense_saved = dense_slots_ * full_blocks;
  d.dense_pages -= std::min(d.dense_pages, dense_saved);
  // Streaming heads only share blocks still retained at the attach depth
  // (kv/prefix_cache.hpp): sinks plus the locals inside the Λ window.
  const std::size_t sink_blocks =
      (cfg_.streaming.sink_tokens + np - 1) / np;
  std::size_t stream_shared = 0;
  for (std::size_t b = 0; b < full_blocks; ++b) {
    if (b < sink_blocks ||
        cached_tokens < cfg_.streaming.local_tokens + (b + 1) * np) {
      ++stream_shared;
    }
  }
  d.stream_pages -= std::min(d.stream_pages, stream_slots_ * stream_shared);
  return d;
}

std::size_t Engine::prefix_match_tokens(
    std::span<const std::int32_t> prompt) const {
  if (prefix_cache_ == nullptr || prompt.size() < 2) return 0;
  return prefix_cache_->match_tokens(prompt, prompt.size() - 1);
}

std::size_t Engine::attach_prefix(SequenceId id,
                                  std::span<const std::int32_t> prompt) {
  if (prefix_cache_ == nullptr || prompt.size() < 2) return 0;
  Sequence& seq = *sequences_[id];
  assert(seq.phase == SequencePhase::kWaiting && seq.position == 0);
  const kv::PageAuditScope audit(id, "Engine::attach_prefix");
  const std::size_t attached =
      prefix_cache_->attach(prompt, prompt.size() - 1, seq.cache);
  seq.position = attached;
  return attached;
}

void Engine::insert_prefix(SequenceId id,
                           std::span<const std::int32_t> tokens) {
  if (prefix_cache_ == nullptr || tokens.empty()) return;
  Sequence& seq = *sequences_[id];
  assert(tokens.size() <= seq.cache.tokens());
  const kv::PageAuditScope audit(id, "Engine::insert_prefix");
  prefix_cache_->insert(tokens, seq.cache);
}

std::size_t Engine::reclaim_prefix_pages(std::size_t target_pages) {
  if (prefix_cache_ == nullptr || target_pages == 0) return 0;
  const kv::PageAuditScope audit(kv::kAuditNoOwner,
                                 "Engine::reclaim_prefix_pages");
  return prefix_cache_->reclaim(target_pages);
}

std::size_t Engine::prefix_cache_pages_held() const {
  return prefix_cache_ == nullptr ? 0 : prefix_cache_->pages_held();
}

}  // namespace lserve::serve
