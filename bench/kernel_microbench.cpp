// google-benchmark microbenchmarks for the hot kernels: the paged walk on
// a prefill chunk and on decode steps (full vs pruned tables), the served
// linears' num::matmul, quantized load paths, and selector scoring.
//
// These complement the table-generating benches with statistically
// rigorous per-kernel timings (use --benchmark_filter=... to narrow).
#include <benchmark/benchmark.h>

#include <cmath>

#include "attn/decode_attention.hpp"
#include "attn/fused_attention.hpp"
#include "eval/metrics.hpp"
#include "model/workload.hpp"
#include "numeric/math.hpp"
#include "numeric/quant.hpp"
#include "numeric/rng.hpp"
#include "sparse/hierarchical_selector.hpp"
#include "sparse/quest_selector.hpp"

namespace {

using namespace lserve;

struct DecodeFixture {
  kv::PageAllocator alloc;
  kv::HeadCache head;
  num::Tensor q;    ///< [group x head_dim] query rows of one kv head.
  num::Tensor out;  ///< same shape.

  DecodeFixture(std::size_t n, num::KvDtype dtype, std::size_t head_dim = 64,
                std::size_t group = 1)
      : alloc(
            [&] {
              kv::PageConfig c;
              c.page_size = 64;
              c.logical_page_size = 16;
              c.head_dim = head_dim;
              c.dtype = dtype;
              return c;
            }(),
            n / 64 + 2),
        q(group, head_dim, 0.3f),
        out(group, head_dim) {
    model::StreamConfig sc;
    sc.n_tokens = n;
    sc.head_dim = head_dim;
    const model::TokenStream stream = model::smooth_stream(sc);
    eval::fill_head_cache(alloc, head, stream);
  }

  void decode(const kv::SelectedPageTable& table, float scale) {
    attn::sparse_paged_decode(alloc, table, head.tokens(), q.view(), scale,
                              out.view());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
};

void BM_DecodeFullTable(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  const auto table = kv::full_page_table(fix.head.view(fix.alloc));
  for (auto _ : state) fix.decode(table, 0.125f);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DecodeFullTable)
    ->Arg(4096)
    ->Arg(8192)
    ->Arg(16384)
    ->Complexity();

void BM_DecodePrunedTable(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 1024;
  const auto table = sparse::select_pages_hierarchical(fix.alloc, fix.head,
                                                       fix.q.row(0), cfg);
  for (auto _ : state) fix.decode(table, 0.125f);
}
BENCHMARK(BM_DecodePrunedTable)->Arg(4096)->Arg(8192)->Arg(16384);

void BM_DecodeInt4Table(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kInt4);
  const auto table = kv::full_page_table(fix.head.view(fix.alloc));
  for (auto _ : state) fix.decode(table, 0.125f);
}
BENCHMARK(BM_DecodeInt4Table)->Arg(4096)->Arg(8192);

// The served geometry (lserve_config on the tiny model): int4 pages of
// 64 tokens / 16-token logical pages, head_dim 32, a GQA group of 2 query
// rows per kv head, and a 4096-token selector budget over an 8192-token
// context. One iteration is one dense kv head's decode.
void BM_DecodeInt4GroupSelected(benchmark::State& state) {
  DecodeFixture fix(8192, num::KvDtype::kInt4, 32, 2);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 4096;
  const auto table = sparse::select_pages_hierarchical(fix.alloc, fix.head,
                                                       fix.q.row(0), cfg);
  for (auto _ : state) fix.decode(table, 1.0f / std::sqrt(32.0f));
}
BENCHMARK(BM_DecodeInt4GroupSelected);

// A prefill chunk at the served geometry: int4 pages of 64 tokens /
// 16-token logical pages, head_dim 32, a GQA group of 2, one 128-row chunk
// after 3456 history tokens. One iteration is one dense kv head's chunk
// attention (four (query head, 64-row q-tile) tasks), run serially.
void BM_PrefillChunkInt4Group(benchmark::State& state) {
  constexpr std::size_t kHistory = 3456, kChunk = 128, kDim = 32, kGroup = 2;
  kv::PageConfig pc;
  pc.page_size = 64;
  pc.logical_page_size = 16;
  pc.head_dim = kDim;
  pc.dtype = num::KvDtype::kInt4;
  kv::PageAllocator alloc(pc, (kHistory + kChunk) / 64 + 2);
  kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kDense}, {});
  model::StreamConfig sc;
  sc.n_tokens = kHistory + kChunk;
  sc.head_dim = kDim;
  const model::TokenStream stream = model::smooth_stream(sc);
  for (std::size_t t = 0; t < sc.n_tokens; ++t) {
    cache.append(alloc, alloc, 0, 0, stream.keys.row(t),
                 stream.values.row(t));
  }
  num::Rng rng(11);
  num::Tensor q(kChunk, kGroup * kDim), chunk_kv(kChunk, kDim),
      out(kChunk, kGroup * kDim);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  attn::FusedPrefillConfig cfg;
  cfg.total_tokens = sc.n_tokens;
  for (auto _ : state) {
    attn::fused_chunked_prefill(alloc, alloc, cache, 0, q.view(),
                                chunk_kv.view(), chunk_kv.view(), kDim, cfg,
                                out.view());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PrefillChunkInt4Group)->Unit(benchmark::kMillisecond);

// num::matmul at the FFN up projection of the tiny model: [rows x 128] ·
// [128 x 256]. One row is a decode step's linear, 128 a prefill chunk's.
void BM_MatmulServed(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  num::Rng rng(13);
  num::Tensor a(rows, 128), b(128, 256), c(rows, 256);
  for (num::Tensor* t : {&a, &b}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  for (auto _ : state) {
    num::matmul(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MatmulServed)->Arg(1)->Arg(128);

void BM_SelectorFlat(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 1024;
  for (auto _ : state) {
    auto table =
        sparse::select_pages_flat(fix.alloc, fix.head, fix.q.row(0), cfg);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectorFlat)->Arg(8192)->Arg(16384)->Arg(32768)->Complexity();

void BM_SelectorHierarchical(benchmark::State& state) {
  DecodeFixture fix(state.range(0), num::KvDtype::kFp16);
  sparse::PageSelectorConfig cfg;
  cfg.token_budget = 1024;
  for (auto _ : state) {
    auto table = sparse::select_pages_hierarchical(fix.alloc, fix.head,
                                                   fix.q.row(0), cfg);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectorHierarchical)
    ->Arg(8192)
    ->Arg(16384)
    ->Arg(32768)
    ->Complexity();

void BM_QuantizeRowInt4(benchmark::State& state) {
  num::Rng rng(9);
  std::vector<float> row(128);
  rng.fill_gaussian(row, 1.0f);
  std::vector<std::uint8_t> codes(64);
  for (auto _ : state) {
    const num::QuantParams p = num::compute_quant_params(row.data(), 128, 4);
    num::quantize_row_int4(row.data(), 128, p, codes.data());
    benchmark::DoNotOptimize(codes.data());
  }
}
BENCHMARK(BM_QuantizeRowInt4);

void BM_DequantizeRowInt4(benchmark::State& state) {
  num::Rng rng(9);
  std::vector<float> row(128), back(128);
  rng.fill_gaussian(row, 1.0f);
  const num::QuantParams p = num::compute_quant_params(row.data(), 128, 4);
  std::vector<std::uint8_t> codes(64);
  num::quantize_row_int4(row.data(), 128, p, codes.data());
  for (auto _ : state) {
    num::dequantize_row_int4(codes.data(), 128, p, back.data());
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_DequantizeRowInt4);

}  // namespace

BENCHMARK_MAIN();
