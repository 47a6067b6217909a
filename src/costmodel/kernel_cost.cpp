#include "costmodel/kernel_cost.hpp"

#include <algorithm>
#include <cmath>

namespace lserve::cost {
namespace {

constexpr double kUsPerSecond = 1e6;

double bw_bytes_per_us(const GpuSpec& spec) {
  return spec.hbm_bw_gbps * 1e9 / kUsPerSecond;
}

double fp16_flops_per_us(const GpuSpec& spec) {
  return spec.fp16_tflops * 1e12 / kUsPerSecond;
}

/// Fraction of peak bandwidth achieved when KV is read in pages of
/// `page_tokens` tokens at `head_dim` channels and `dtype` precision.
double page_bandwidth_efficiency(const GpuSpec& spec, std::size_t page_tokens,
                                 num::KvDtype dtype, std::size_t head_dim) {
  const double payload = static_cast<double>(page_tokens) *
                         static_cast<double>(head_dim) *
                         num::bytes_per_element(dtype);
  return payload / (payload + spec.page_gap_bytes);
}

}  // namespace

double decode_attention_us(const GpuSpec& spec, std::size_t kv_heads,
                           std::size_t head_dim, std::size_t kv_tokens,
                           num::KvDtype dtype, std::size_t page_tokens,
                           std::size_t batch) {
  const double scales =
      dtype == num::KvDtype::kFp16 ? 0.0 : 4.0;  // per-token scale+zero
  const double bytes_per_token =
      2.0 * (static_cast<double>(head_dim) * num::bytes_per_element(dtype) +
             scales);  // K and V
  const double bytes = static_cast<double>(batch) *
                       static_cast<double>(kv_heads) *
                       static_cast<double>(kv_tokens) * bytes_per_token;
  const double dequant =
      dtype == num::KvDtype::kFp16 ? 1.0 : spec.dequant_penalty;
  const double eff = spec.attn_bw_frac * dequant *
                     page_bandwidth_efficiency(spec, page_tokens, dtype,
                                               head_dim);
  return bytes / (bw_bytes_per_us(spec) * eff) + spec.launch_overhead_us;
}

double prefill_attention_us(const GpuSpec& spec, std::size_t q_heads,
                            std::size_t head_dim, std::size_t n_tokens,
                            double kept_fraction, std::size_t batch) {
  // Causal attention: ~2 * N^2 * D MACs per head (QK^T plus PV), i.e.
  // 4 * N^2/2 * D * 2 flops, of which sparse kernels do kept_fraction.
  const double n = static_cast<double>(n_tokens);
  const double flops = 4.0 * n * (n / 2.0) * static_cast<double>(head_dim) *
                       static_cast<double>(q_heads) *
                       static_cast<double>(batch) * kept_fraction;
  return flops / (fp16_flops_per_us(spec) * spec.prefill_attn_eff) +
         spec.launch_overhead_us;
}

double gemm_us(const GpuSpec& spec, std::size_t m, std::size_t n,
               std::size_t k, int weight_bits) {
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  // W4A8/W8A8 runs on int8 tensor cores at ~2x the fp16 peak (QServe).
  const double peak_flops_per_us = weight_bits <= 8
                                       ? spec.int8_tops * 1e12 / 1e6
                                       : fp16_flops_per_us(spec);
  const double compute_us = flops / (peak_flops_per_us * spec.gemm_eff);
  // Memory: activations fp16, weights at weight_bits.
  const double bytes =
      2.0 * (static_cast<double>(m) * k + static_cast<double>(m) * n) +
      static_cast<double>(k) * n * (weight_bits / 8.0);
  const double memory_us = bytes / bw_bytes_per_us(spec);
  return std::max(compute_us, memory_us) + spec.launch_overhead_us;
}

double page_selector_us(const GpuSpec& spec, std::size_t scored_reps,
                        std::size_t head_dim, std::size_t batch) {
  if (scored_reps == 0) return 0.0;
  // Each representative = kmin + kmax fp16 vectors; the top-K pass re-reads
  // the score array (negligible) and costs one extra launch.
  const double bytes = static_cast<double>(batch) *
                       static_cast<double>(scored_reps) * 2.0 * 2.0 *
                       static_cast<double>(head_dim);
  return bytes / bw_bytes_per_us(spec) + 2.0 * spec.launch_overhead_us;
}

double kstats_pooling_us(const GpuSpec& spec, std::size_t kv_heads,
                         std::size_t head_dim, std::size_t n_tokens,
                         std::size_t batch) {
  const double bytes = static_cast<double>(batch) *
                       static_cast<double>(kv_heads) *
                       static_cast<double>(n_tokens) *
                       static_cast<double>(head_dim) * 2.0;
  return bytes / bw_bytes_per_us(spec) + spec.launch_overhead_us;
}

double layer_overhead_us(const GpuSpec& spec) {
  // RMSNorm x2, RoPE, residual adds: ~4 small launches.
  return 4.0 * spec.launch_overhead_us;
}

}  // namespace lserve::cost
