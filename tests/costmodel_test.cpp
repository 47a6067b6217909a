// Shape tests for the GPU analytic cost model (src/costmodel). Each test
// asserts a qualitative relationship the paper reports; EXPERIMENTS.md maps
// these to the corresponding table/figure.
#include <gtest/gtest.h>

#include "costmodel/gpu_spec.hpp"
#include "costmodel/kernel_cost.hpp"
#include "costmodel/pipeline_cost.hpp"

namespace lserve::cost {
namespace {

const model::ModelConfig kLlama3 = model::llama3_8b();
const model::ModelConfig kLlama2 = model::llama2_7b();

/// Attention's share of a stage's latency.
double attention_fraction(const StageBreakdown& b) {
  return b.total_us() > 0.0 ? b.attention_us / b.total_us() : 0.0;
}

/// A hypothetical part `speedup`-times faster than `base`: bandwidth and
/// matrix throughput scale up, launch overhead scales down, and the purely
/// geometric constants (page gap, efficiency fractions) stay put.
GpuSpec scaled(const GpuSpec& base, double speedup) {
  GpuSpec spec = base;
  spec.hbm_bw_gbps = base.hbm_bw_gbps * speedup;
  spec.fp16_tflops = base.fp16_tflops * speedup;
  spec.int8_tops = base.int8_tops * speedup;
  spec.launch_overhead_us = base.launch_overhead_us / speedup;
  return spec;
}

TEST(PageEfficiency, MonotoneInPageSize) {
  // The same int4 KV read in larger pages wastes fewer DRAM bursts.
  const GpuSpec spec = a100();
  const auto read_us = [&](std::size_t page) {
    return decode_attention_us(spec, 8, 128, 65536, num::KvDtype::kInt4,
                               page, 1) -
           spec.launch_overhead_us;
  };
  double prev = read_us(8);
  for (std::size_t p : {16u, 32u, 64u, 128u}) {
    EXPECT_LT(read_us(p), prev) << "page " << p;
    prev = read_us(p);
  }
  // 128-token pages are near-peak: within 1/0.85 of burst-free reads.
  EXPECT_LT(prev, read_us(std::size_t{1} << 30) / 0.85);
}

TEST(PageEfficiency, Table1SlowdownShape) {
  // Table 1: page-16 int4 decoding is ~1.5x slower than page-128 at long
  // sequence, page-64 is within a few percent.
  const GpuSpec spec = a100();
  ServingPolicy p = qserve_policy();
  auto step_ms = [&](std::size_t page, std::size_t seq) {
    p.page_size = page;
    p.logical_page_size = page;
    return decode_step_cost(spec, kLlama3, p, seq, 32).total_us() / 1000.0;
  };
  const double slow16 = step_ms(16, 8192) / step_ms(128, 8192);
  const double slow32 = step_ms(32, 8192) / step_ms(128, 8192);
  const double slow64 = step_ms(64, 8192) / step_ms(128, 8192);
  EXPECT_GT(slow16, 1.3);
  EXPECT_LT(slow16, 1.8);
  EXPECT_GT(slow32, slow64);
  EXPECT_LT(slow64, 1.10);
  // Dilution at short context (Table 1 row 512 shows a much smaller gap
  // than row 8192; GEMM dominates the step).
  EXPECT_LT(step_ms(16, 512) / step_ms(128, 512), 1.25);
  EXPECT_LT(step_ms(16, 512) / step_ms(128, 512),
            0.8 * (slow16 - 1.0) + 1.0);
}

TEST(DecodeCost, DenseGrowsLinearlyDynamicIsConstant) {
  const GpuSpec spec = a100();
  const ServingPolicy dense = vllm_policy();
  ServingPolicy dynamic = vllm_policy();
  dynamic.dynamic_decode = true;
  dynamic.token_budget = 4096;
  const double d64 = decode_attention_layer_us(spec, kLlama2, dense, 65536, 1);
  const double d128 =
      decode_attention_layer_us(spec, kLlama2, dense, 131072, 1);
  EXPECT_NEAR(d128 / d64, 2.0, 0.2);
  const double q64 =
      decode_attention_layer_us(spec, kLlama2, dynamic, 65536, 1);
  const double q128 =
      decode_attention_layer_us(spec, kLlama2, dynamic, 131072, 1);
  EXPECT_LT(q128 / q64, 1.3);  // constant attention + linear selector only
  EXPECT_LT(q64, d64);
}

TEST(DecodeCost, Fig15LayerLatencyOrdering) {
  // Fig 15: baseline (dense) is slowest at long context; +static divides by
  // ~1.5-2; +dynamic is flat; LServe (static+dynamic) is the cheapest.
  const GpuSpec spec = a100();
  const std::size_t seq = 262144;
  ServingPolicy dense = vllm_policy();
  dense.kv_dtype = num::KvDtype::kFp16;
  ServingPolicy stat = duo_attention_policy();
  ServingPolicy dyn = quest_policy();
  dyn.page_size = 32;
  dyn.logical_page_size = 16;
  dyn.reuse_interval = 4;
  dyn.skip_selector_when_covered = true;
  ServingPolicy both = lserve_policy();
  both.kv_dtype = num::KvDtype::kFp16;  // isolate sparsity from quantization

  const double t_dense = decode_attention_layer_us(spec, kLlama2, dense, seq, 1);
  const double t_static = decode_attention_layer_us(spec, kLlama2, stat, seq, 1);
  const double t_dyn = decode_attention_layer_us(spec, kLlama2, dyn, seq, 1);
  const double t_lserve = decode_attention_layer_us(spec, kLlama2, both, seq, 1);
  EXPECT_LT(t_static, t_dense);
  EXPECT_GT(t_static / t_lserve, 2.0);   // static alone still linear
  EXPECT_LT(t_lserve, t_dyn);            // streaming halves the dense heads
  EXPECT_GT(t_dense / t_lserve, 10.0);   // paper: ~40x at 256K
}

TEST(DecodeCost, LServeSpeedupOverVllmGrowsWithContext) {
  // Fig 10 / Table 7 shape: the LServe/vLLM ratio increases with length and
  // exceeds 1.3x beyond 128K.
  const GpuSpec spec = a100();
  const ServingPolicy v = vllm_policy();
  const ServingPolicy l = lserve_policy();
  double prev_ratio = 0.0;
  for (std::size_t seq : {65536u, 131072u, 262144u}) {
    const double tv = decode_step_cost(spec, kLlama3, v, seq, 1).total_us();
    const double tl = decode_step_cost(spec, kLlama3, l, seq, 1).total_us();
    const double ratio = tv / tl;
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 1.3);
}

TEST(DecodeCost, NoShortContextRegression) {
  // Fig 16: LServe avoids slowdowns at 4K-8K (selector skipped when the
  // budget covers the context).
  const GpuSpec spec = a100();
  const ServingPolicy v = vllm_policy();
  const ServingPolicy l = lserve_policy();
  for (std::size_t seq : {4096u, 8192u}) {
    const double tv = decode_step_cost(spec, kLlama3, v, seq, 1).total_us();
    const double tl = decode_step_cost(spec, kLlama3, l, seq, 1).total_us();
    EXPECT_LT(tl, tv * 1.02) << "seq " << seq;
  }
}

TEST(PrefillCost, AttentionFractionGrowsWithLength) {
  // Fig 2 shape: attention share rises with context and crosses 50%
  // somewhere between 32K and 128K. Fig 2 profiles the plain fp16 model,
  // so the policy here uses fp16 weights (not the W8A8 baseline setting).
  const GpuSpec spec = a100();
  ServingPolicy p = vllm_policy();
  p.weight_bits = 16;
  double prev = 0.0;
  for (std::size_t n : {8192u, 16384u, 32768u, 65536u, 131072u}) {
    const double frac =
        attention_fraction(prefill_cost(spec, kLlama3, p, n, 1));
    EXPECT_GT(frac, prev);
    prev = frac;
  }
  EXPECT_GT(prev, 0.5);
  const double frac32k =
      attention_fraction(prefill_cost(spec, kLlama3, p, 32768, 1));
  EXPECT_LT(frac32k, 0.55);
}

TEST(PrefillCost, StreamingHeadsAndDynamicMaskSpeedUpPrefill) {
  const GpuSpec spec = a100();
  const std::size_t n = 262144;
  const double dense =
      prefill_cost(spec, kLlama3, vllm_policy(), n, 1).total_us();
  const double duo =
      prefill_cost(spec, kLlama3, duo_attention_policy(), n, 1).total_us();
  const double lserve =
      prefill_cost(spec, kLlama3, lserve_policy(), n, 1).total_us();
  EXPECT_LT(duo, dense);
  EXPECT_LT(lserve, duo);
  // Paper: up to 2.9x prefill speedup over vLLM at long context.
  EXPECT_GT(dense / lserve, 1.5);
  EXPECT_LT(dense / lserve, 4.0);
}

TEST(SelectorCost, LinearInSequenceAndCutByReuse) {
  // Fig 14: vanilla selector grows linearly and dominates sparse attention
  // beyond ~64K; reuse-4 cuts it 4x.
  const GpuSpec spec = a100();
  ServingPolicy vanilla = lserve_policy();
  vanilla.reuse_interval = 1;
  ServingPolicy reuse4 = lserve_policy();
  reuse4.reuse_interval = 4;
  const auto sel_us = [&](const ServingPolicy& p, std::size_t seq) {
    return decode_step_cost(spec, kLlama3, p, seq, 1).selector_us;
  };
  // Linear growth (with a fixed launch offset that washes out at scale).
  EXPECT_GT(sel_us(vanilla, 131072), 1.4 * sel_us(vanilla, 65536));
  EXPECT_NEAR(sel_us(vanilla, 1u << 20) / sel_us(vanilla, 1u << 19), 2.0,
              0.15);
  EXPECT_NEAR(sel_us(vanilla, 131072) / sel_us(reuse4, 131072), 4.0, 0.01);
  // At 128K the vanilla selector exceeds the sparse attention kernel time.
  const double attn_us =
      decode_step_cost(spec, kLlama3, vanilla, 131072, 1).attention_us;
  EXPECT_GT(sel_us(vanilla, 131072), 0.5 * attn_us);
}

TEST(GemmCost, ComputeVsMemoryRegimes) {
  const GpuSpec spec = a100();
  // m=1 decode GEMM is memory bound: int4 weights beat fp16 by ~4x.
  const double fp16 = gemm_us(spec, 1, 4096, 4096, 16);
  const double int4 = gemm_us(spec, 1, 4096, 4096, 4);
  EXPECT_GT(fp16 / int4, 2.5);
  // Large-m GEMM is compute bound: quantized weights still win, but only
  // by the int8-tensor-core factor (~2x), not the 4x byte ratio.
  const double big16 = gemm_us(spec, 65536, 4096, 4096, 16);
  const double big4 = gemm_us(spec, 65536, 4096, 4096, 4);
  EXPECT_NEAR(big16 / big4, 2.0, 0.05);
}

TEST(GpuSpecs, L40sIsBandwidthPoorerThanA100) {
  const GpuSpec a = a100();
  const GpuSpec l = l40s();
  EXPECT_GT(a.hbm_bw_gbps, l.hbm_bw_gbps);
  const double ta =
      decode_step_cost(a, kLlama3, vllm_policy(), 131072, 1).total_us();
  const double tl =
      decode_step_cost(l, kLlama3, vllm_policy(), 131072, 1).total_us();
  EXPECT_GT(tl, ta);
}

// ---------------------------------------------------------------------------
// Properties behind the sparse-vs-dense gate (crossover_tokens): the
// attention-policy layer trusts these shapes, so they are pinned here.

TEST(Crossover, DecodeCostMonotoneInContextLength) {
  // Longer context never gets cheaper, on either route — the galloping
  // search in crossover_tokens assumes the dense-minus-sparse gap never
  // collapses back once sparse wins.
  const GpuSpec spec = a100();
  for (const ServingPolicy& p : {lserve_policy(), vllm_policy(),
                                 dense_decode_variant(lserve_policy())}) {
    double prev = 0.0;
    for (std::size_t seq = 512; seq <= (1u << 18); seq *= 2) {
      const double t = decode_step_cost(spec, kLlama3, p, seq, 1).total_us();
      EXPECT_GE(t, prev) << (p.dynamic_decode ? "sparse" : "dense")
                         << " seq " << seq;
      prev = t;
    }
  }
}

TEST(Crossover, SparseWinsExactlyFromTheCrossoverOn) {
  const GpuSpec spec = a100();
  const ServingPolicy p = lserve_policy();
  const ServingPolicy d = dense_decode_variant(p);
  const std::size_t x = crossover_tokens(spec, kLlama3, p, 1);
  ASSERT_NE(x, kNoCrossover);
  // Sparse cannot win while the budget covers the whole context: pruning
  // reads the same tokens and still pays the selector.
  EXPECT_GT(x, p.token_budget);
  const auto sparse_us = [&](std::size_t s) {
    return decode_step_cost(spec, kLlama3, p, s, 1).total_us();
  };
  const auto dense_us = [&](std::size_t s) {
    return decode_step_cost(spec, kLlama3, d, s, 1).total_us();
  };
  // x is the *first* strict win.
  EXPECT_LT(sparse_us(x), dense_us(x));
  EXPECT_GE(sparse_us(x - 1), dense_us(x - 1));
  // Beyond it sparse stays ahead and the gap widens (dense reads the full
  // context; sparse reads the budget plus an amortized selector sweep).
  double prev_gap = 0.0;
  for (std::size_t s = x; s <= 8 * x; s *= 2) {
    const double gap = dense_us(s) - sparse_us(s);
    EXPECT_GE(gap, prev_gap) << "seq " << s;
    prev_gap = gap;
  }
}

TEST(Crossover, InvariantUnderGpuSpecScaling) {
  // scaled(spec, k) multiplies every throughput by k and divides the
  // launch overhead by k, so each roofline term divides by k and the
  // sparse-vs-dense comparison — hence the crossover — is unchanged.
  // Power-of-two factors keep the arithmetic bit-exact.
  const ServingPolicy p = lserve_policy();
  const std::size_t base = crossover_tokens(a100(), kLlama3, p, 1);
  ASSERT_NE(base, kNoCrossover);
  for (const double k : {0.5, 2.0, 8.0}) {
    EXPECT_EQ(crossover_tokens(scaled(a100(), k), kLlama3, p, 1), base)
        << "scale " << k;
  }
}

TEST(Crossover, NoCrossoverWithoutDynamicDecode) {
  // A policy with no selector has no sparse route to win: the gate pins
  // dense (and the search is skipped entirely).
  EXPECT_EQ(crossover_tokens(a100(), kLlama3, vllm_policy(), 1),
            kNoCrossover);
  EXPECT_EQ(crossover_tokens(a100(), kLlama3, duo_attention_policy(), 1),
            kNoCrossover);
  EXPECT_EQ(
      crossover_tokens(a100(), kLlama3, dense_decode_variant(lserve_policy()),
                       1),
      kNoCrossover);
}

TEST(StreamingTokens, LambdaWindowIsPageRounded) {
  ServingPolicy p = lserve_policy();
  p.sink_tokens = 64;
  p.local_tokens = 256;
  p.page_size = 64;
  EXPECT_EQ(streaming_head_kv_tokens(p, 1u << 20), 320u);
  EXPECT_EQ(streaming_head_kv_tokens(p, 100), 100u);  // short ctx clamps
  EXPECT_EQ(dense_head_kv_tokens(lserve_policy(), 1u << 20), 4096u);
  EXPECT_EQ(dense_head_kv_tokens(vllm_policy(), 1u << 20), 1u << 20);
}

}  // namespace
}  // namespace lserve::cost
