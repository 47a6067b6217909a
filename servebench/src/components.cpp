#include "components.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "attn/fused_attention.hpp"
#include "sparse/hierarchical_selector.hpp"
#include "sparse/reusable_selector.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace servebench {

namespace {

using lserve::kv::HeadKind;
constexpr std::size_t kChunk = 128;

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median over `reps` timed calls of `fn` (one warm call first).
double median_us(int reps, const std::function<void(int)>& fn) {
  fn(0);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(r);
    samples.push_back(elapsed_us(t0));
  }
  return percentile(std::move(samples), 50.0);
}

void fill(Rng& rng, std::vector<float>& v) {
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

/// Appends `tokens` random K/V rows to every (layer, kv head) of `seq`;
/// returns the median microseconds per token over blocks of 64 tokens.
double append_tokens(lserve::serve::Engine& engine,
                     lserve::serve::Sequence& seq, std::size_t tokens,
                     Rng& rng) {
  const auto& m = engine.config().model;
  std::vector<float> k(m.head_dim), v(m.head_dim);
  std::vector<double> per_token;
  for (std::size_t done = 0; done < tokens;) {
    const std::size_t block = std::min<std::size_t>(64, tokens - done);
    fill(rng, k);
    fill(rng, v);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < block; ++t) {
      for (std::size_t layer = 0; layer < m.layers; ++layer) {
        for (std::size_t h = 0; h < m.kv_heads; ++h) {
          seq.cache.append(engine.dense_allocator(), engine.stream_allocator(),
                           layer, h, k.data(), v.data());
        }
      }
    }
    per_token.push_back(elapsed_us(t0) / static_cast<double>(block));
    done += block;
  }
  return percentile(std::move(per_token), 50.0);
}

}  // namespace

ComponentTimings time_components(const lserve::serve::EngineConfig& cfg,
                                 std::size_t decode_context,
                                 std::size_t prefill_history) {
  using namespace lserve;
  serve::EngineConfig ec = cfg;
  ec.enable_prefix_cache = false;
  serve::Engine engine(ec);
  const model::ModelConfig& m = ec.model;
  const std::size_t d = m.head_dim;
  Rng rng(derive_seed(ec.seed, 99));
  ComponentTimings out;
  out.decode_context = std::max<std::size_t>(decode_context, 1);
  out.prefill_history = prefill_history;

  // Decode-side state: one sequence holding decode_context tokens.
  const serve::SequenceId dec = engine.create_sequence();
  serve::Sequence& seq = engine.sequence(dec);
  out.append_us_per_token = append_tokens(engine, seq, out.decode_context, rng);

  std::vector<float> q(m.q_heads * d);
  fill(rng, q);
  std::size_t dense_kvh = 0;
  while (dense_kvh + 1 < m.kv_heads &&
         seq.cache.kind(0, dense_kvh) != HeadKind::kDense) {
    ++dense_kvh;
  }
  if (seq.cache.kind(0, dense_kvh) == HeadKind::kDense) {
    const kv::HeadCache& head = seq.cache.dense_head(0, dense_kvh);
    out.select_us = median_us(200, [&](int) {
      sparse::select_pages_hierarchical(engine.dense_allocator(), head,
                                        q.data(), ec.selector);
    });
  }

  attn::FusedDecodeConfig dc;
  dc.dynamic_dense = ec.dynamic_decode;
  dc.hierarchical = ec.hierarchical;
  dc.selector = ec.selector;
  sparse::ReusableSelector selector(m.layers * m.kv_heads, ec.reuse_interval);
  num::Tensor dec_out(m.q_heads, d);
  const num::ConstMatView q_heads{q.data(), m.q_heads, d, d};
  out.decode_us = median_us(200, [&](int step) {
    attn::fused_sparse_decode(engine.dense_allocator(),
                              engine.stream_allocator(), seq.cache, 0, q_heads,
                              m.group_size(), &selector,
                              static_cast<std::size_t>(step), dc,
                              dec_out.view());
  });
  engine.release_sequence(dec);

  // Prefill-side state: prefill_history tokens, then one chunk written back
  // the way Engine::forward_prefill does before it runs attention.
  const serve::SequenceId pre = engine.create_sequence();
  serve::Sequence& pseq = engine.sequence(pre);
  append_tokens(engine, pseq, prefill_history, rng);
  num::Tensor cq(kChunk, m.hidden()), ck(kChunk, m.kv_dim()),
      cv(kChunk, m.kv_dim()), cout(kChunk, m.hidden());
  for (num::Tensor* t : {&cq, &ck, &cv}) {
    std::vector<float> row(t->cols());
    for (std::size_t r = 0; r < t->rows(); ++r) {
      fill(rng, row);
      std::copy(row.begin(), row.end(), t->row(r));
    }
  }
  for (std::size_t layer = 0; layer < m.layers; ++layer) {
    for (std::size_t t = 0; t < kChunk; ++t) {
      for (std::size_t h = 0; h < m.kv_heads; ++h) {
        pseq.cache.append_roundtrip(engine.dense_allocator(),
                                    engine.stream_allocator(), layer, h,
                                    ck.row(t) + h * d, cv.row(t) + h * d);
      }
    }
  }
  attn::FusedPrefillConfig pc;
  pc.tiling = ec.tiling;
  pc.streaming.sink_blocks =
      (ec.streaming.sink_tokens + ec.tiling.tile_k - 1) / ec.tiling.tile_k;
  pc.streaming.local_blocks = std::max<std::size_t>(
      1, (ec.streaming.local_tokens + ec.tiling.tile_k - 1) / ec.tiling.tile_k);
  pc.total_tokens = prefill_history + kChunk;
  out.prefill_chunk_us = median_us(15, [&](int) {
    attn::fused_chunked_prefill(engine.dense_allocator(),
                                engine.stream_allocator(), pseq.cache, 0,
                                cq.view(), ck.view(), cv.view(), d, pc,
                                cout.view());
  });
  engine.release_sequence(pre);

  // Model linears, outside attention: each repetition starts from a fresh
  // embedding (outside the timed region) because the residual adds work in
  // place.
  const model::Transformer& tf = engine.transformer();
  const auto time_linears = [&](std::size_t rows, std::size_t pos, int reps) {
    std::vector<std::int32_t> ids(rows);
    for (auto& id : ids) id = static_cast<std::int32_t>(rng.below(m.vocab));
    num::Tensor lq(rows, m.hidden()), lk(rows, m.kv_dim()),
        lv(rows, m.kv_dim()), attn_out(rows, m.hidden());
    std::vector<double> samples;
    for (int r = 0; r <= reps; ++r) {
      num::Tensor hidden = tf.embed(ids);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t layer = 0; layer < m.layers; ++layer) {
        tf.qkv_project(hidden.view(), layer, pos, lq.view(), lk.view(),
                       lv.view());
        tf.output_project(attn_out.view(), layer, hidden.view());
        tf.ffn(hidden.view(), layer);
      }
      tf.readout_argmax(hidden.row(rows - 1));
      if (r > 0) samples.push_back(elapsed_us(t0));  // r == 0 warms up.
    }
    return percentile(std::move(samples), 50.0);
  };
  out.decode_linear_us = time_linears(1, out.decode_context, 200);
  out.prefill_linear_us_per_token =
      time_linears(kChunk, prefill_history, 15) / static_cast<double>(kChunk);
  return out;
}

}  // namespace servebench
