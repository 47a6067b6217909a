// GPU hardware descriptions for the analytic cost model.
//
// The end-to-end numbers in LServe's evaluation are roofline phenomena:
// decode attention and small-batch GEMM are memory-bandwidth-bound, prefill
// attention and large-batch GEMM are compute-bound, and every kernel pays a
// fixed launch latency. A spec therefore carries peak bandwidth, peak
// matrix throughput, a launch overhead, and the page-gap constant that
// models DRAM-burst under-utilization for small KV pages (Table 1).
#pragma once

#include <string>

namespace lserve::cost {

/// Hardware parameters of one accelerator.
struct GpuSpec {
  std::string name = "A100";
  double hbm_bw_gbps = 2039.0;     ///< peak HBM bandwidth, GB/s.
  double fp16_tflops = 312.0;      ///< dense fp16 tensor throughput.
  double int8_tops = 624.0;        ///< dense int8 tensor throughput.
  double launch_overhead_us = 2.0; ///< fixed cost per kernel launch.
  double page_gap_bytes = 1024.0;  ///< per-page bandwidth dead-time proxy.
  /// Decode-attention achievable bandwidth fraction for contiguous fp16
  /// reads (FlashDecoding-class kernels run close to peak).
  double attn_bw_frac = 0.85;
  /// Extra multiplier for quantized KV paths: in-kernel dequantization is
  /// ALU work that eats into the streaming rate (QServe-class kernels).
  double dequant_penalty = 0.65;
  double gemm_eff = 0.75;          ///< achievable fraction of peak FLOPs.
  double prefill_attn_eff = 0.45;  ///< prefill attention FLOP efficiency.
};

/// NVIDIA A100-80GB (SXM).
GpuSpec a100();
/// NVIDIA L40S 48GB (Ada Lovelace).
GpuSpec l40s();

}  // namespace lserve::cost
