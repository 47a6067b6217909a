#include "costmodel/gpu_spec.hpp"

namespace lserve::cost {

GpuSpec a100() {
  GpuSpec spec;
  spec.name = "A100";
  spec.hbm_bw_gbps = 2039.0;
  spec.fp16_tflops = 312.0;
  spec.int8_tops = 624.0;
  spec.launch_overhead_us = 2.0;
  spec.page_gap_bytes = 1024.0;
  return spec;
}

GpuSpec l40s() {
  GpuSpec spec;
  spec.name = "L40S";
  spec.hbm_bw_gbps = 864.0;
  spec.fp16_tflops = 362.0;
  spec.int8_tops = 733.0;
  spec.launch_overhead_us = 2.0;
  spec.page_gap_bytes = 1024.0;
  return spec;
}

}  // namespace lserve::cost
