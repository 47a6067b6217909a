// Figure 15: single-layer decode attention latency under each sparsity
// pattern (Llama-2-7B).
//
// Paper (A100, us/layer): dense grows 87 -> 3492 from 4K to 256K; +static
// (50% streaming heads) divides by ~1.5-1.7; +dynamic (4K budget) is flat
// ~118; the combination (LServe) is flat ~82. Regenerated with the cost
// model at GPU scale and cross-checked with a measured CPU decode kernel
// at smaller scale (same ordering).
#include <cstdio>

#include "attn/decode_attention.hpp"
#include "common.hpp"
#include "costmodel/gpu_spec.hpp"
#include "eval/metrics.hpp"

using namespace lserve;

namespace {

cost::ServingPolicy dense_fp16() {
  cost::ServingPolicy p = cost::vllm_policy();
  p.weight_bits = 16;
  return p;
}

cost::ServingPolicy static_only() {
  cost::ServingPolicy p = dense_fp16();
  p.streaming_fraction = 0.5;
  return p;
}

cost::ServingPolicy dynamic_only() {
  cost::ServingPolicy p = dense_fp16();
  p.dynamic_decode = true;
  p.token_budget = 4096;
  p.logical_page_size = 16;
  p.reuse_interval = 4;
  return p;
}

cost::ServingPolicy combined() {
  cost::ServingPolicy p = dynamic_only();
  p.streaming_fraction = 0.5;
  return p;
}

}  // namespace

int main() {
  const cost::GpuSpec spec = cost::a100();
  const model::ModelConfig m = model::llama2_7b();
  const std::vector<std::size_t> lengths{4096,  8192,   16384, 32768,
                                         65536, 131072, 262144};

  bench::section(
      "Fig 15 (cost model): single-layer decode attention latency (us), "
      "Llama-2-7B, A100");
  {
    std::vector<std::string> header;
    for (auto n : lengths) header.push_back(bench::klen(n));
    bench::row("Variant", header);
  }
  for (const auto& [name, policy] :
       std::vector<std::pair<std::string, cost::ServingPolicy>>{
           {"Baseline Attention", dense_fp16()},
           {"+Static Only (50%)", static_only()},
           {"+Dynamic Only (4K)", dynamic_only()},
           {"LServe Attention", combined()}}) {
    std::vector<std::string> cells;
    for (std::size_t n : lengths) {
      cells.push_back(bench::fmt(
          cost::decode_attention_layer_us(spec, m, policy, n, 1), 0));
    }
    bench::row(name, cells);
  }

  // Measured CPU cross-check (one kv head, fp16 cache): full history vs
  // sink+local table vs budget-pruned table.
  bench::section(
      "Measured (CPU): one-head decode latency (us) vs context");
  bench::row("Variant", {"4K", "8K", "16K", "32K"});
  kv::PageConfig pages;
  pages.page_size = 64;
  pages.logical_page_size = 16;
  pages.head_dim = 64;
  std::vector<std::string> dense_cells, stream_cells, dyn_cells;
  for (std::size_t n : {4096u, 8192u, 16384u, 32768u}) {
    kv::PageAllocator alloc(pages, n / 64 + 2);
    kv::HeadCache head;
    model::StreamConfig sc;
    sc.n_tokens = n;
    sc.head_dim = 64;
    model::TokenStream stream = model::smooth_stream(sc);
    eval::fill_head_cache(alloc, head, stream);
    std::vector<float> q(64, 0.3f), out(64);

    const auto full = kv::full_page_table(head.view(alloc));
    eval::ProbePolicy streaming;
    streaming.kind = eval::PolicyKind::kStreaming;
    streaming.sink_tokens = 64;
    streaming.local_tokens = 256;
    const auto lambda = eval::policy_table(alloc, head, q.data(), streaming);
    eval::ProbePolicy pruned;
    pruned.kind = eval::PolicyKind::kHierSelect;
    pruned.selector.token_budget = 1024;
    const auto selected = eval::policy_table(alloc, head, q.data(), pruned);

    for (const auto& [cells, table] :
         std::vector<std::pair<std::vector<std::string>*,
                               const kv::SelectedPageTable*>>{
             {&dense_cells, &full},
             {&stream_cells, &lambda},
             {&dyn_cells, &selected}}) {
      const double us = bench::time_us([&] {
        attn::sparse_paged_decode(alloc, *table, head.tokens(),
                                  num::ConstMatView{q.data(), 1, 64, 64},
                                  0.125f, num::MatView{out.data(), 1, 64, 64});
      });
      cells->push_back(bench::fmt(us, 1));
    }
  }
  bench::row("Dense (full table)", dense_cells);
  bench::row("Streaming (sink+local)", stream_cells);
  bench::row("Dynamic (1K budget)", dyn_cells);

  std::printf(
      "\nShape check: dense linear in context; +static divides by ~1.5-1.7x;"
      "\n+dynamic flat beyond the budget; LServe lowest everywhere (paper:\n"
      "87->3492 us dense vs ~82 us LServe at 256K). The measured CPU "
      "kernel\nshows the same ordering: streaming and dynamic are flat, "
      "dense grows.\n");
  return 0;
}
