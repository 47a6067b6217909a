// Per-kernel roofline costs.
//
// Every function returns microseconds for one kernel invocation on one GPU,
// computed as max(bytes / effective_bandwidth, flops / effective_peak) plus
// the launch overhead. These are the building blocks the pipeline model
// composes into per-step decode latency and prefill TTFT.
#pragma once

#include <cstddef>

#include "costmodel/gpu_spec.hpp"
#include "numeric/quant.hpp"

namespace lserve::cost {

/// Decode-stage paged attention for one layer:
/// `kv_heads` heads each reading `kv_tokens` cached tokens (keys+values) of
/// `head_dim` channels at `dtype`, for `batch` sequences, in pages of
/// `page_tokens` tokens (small quantized pages waste DRAM bursts, Table 1).
double decode_attention_us(const GpuSpec& spec, std::size_t kv_heads,
                           std::size_t head_dim, std::size_t kv_tokens,
                           num::KvDtype dtype, std::size_t page_tokens,
                           std::size_t batch);

/// Prefill-stage attention for one layer: `q_heads` heads over `n_tokens`
/// queries with `kept_fraction` of the causal tile pairs computed
/// (kept_fraction = 1 - r; theoretical sparse speedup = 1/kept_fraction).
double prefill_attention_us(const GpuSpec& spec, std::size_t q_heads,
                            std::size_t head_dim, std::size_t n_tokens,
                            double kept_fraction, std::size_t batch);

/// GEMM C[m x n] = A[m x k] B[k x n]; `weight_bits` models quantized
/// weights (memory-bound regime at small m reads the weight matrix).
double gemm_us(const GpuSpec& spec, std::size_t m, std::size_t n,
               std::size_t k, int weight_bits);

/// Page-selector scoring pass for one layer: `scored_reps` logical-page
/// representatives of `head_dim` channels (2 vectors each, fp16), plus a
/// top-K reduction.
double page_selector_us(const GpuSpec& spec, std::size_t scored_reps,
                        std::size_t head_dim, std::size_t batch);

/// Context-stage min/max pooling that builds K_stats for `n_tokens` new
/// tokens across `kv_heads` dense heads.
double kstats_pooling_us(const GpuSpec& spec, std::size_t kv_heads,
                         std::size_t head_dim, std::size_t n_tokens,
                         std::size_t batch);

/// Small per-layer glue (norms, RoPE, residuals): a few launches.
double layer_overhead_us(const GpuSpec& spec);

}  // namespace lserve::cost
