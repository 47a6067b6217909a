// Component timing: direct calls into the layers under the serving stack,
// at the context lengths a workload produced, on a fresh Engine of the
// deployment's preset. Each figure is the median over repetitions.
#pragma once

#include <cstddef>

#include "serve/engine.hpp"

namespace servebench {

struct ComponentTimings {
  std::size_t decode_context = 0;   ///< tokens cached for the decode calls.
  std::size_t prefill_history = 0;  ///< history depth of the prefill chunk.
  /// kv::TwoWayKvCache::append of one token's K/V into every
  /// (layer, kv head), quantize and K_stats included.
  double append_us_per_token = 0.0;
  /// One sparse::select_pages_hierarchical call on a dense head.
  double select_us = 0.0;
  /// One attn::fused_sparse_decode call (one layer, all heads), with the
  /// preset's selector reuse across consecutive steps.
  double decode_us = 0.0;
  /// One attn::fused_chunked_prefill call (one layer, a 128-token chunk).
  double prefill_chunk_us = 0.0;
  /// qkv_project + output_project + ffn over all layers + readout_argmax
  /// for one row (decode) and per token of a 128-row chunk (prefill).
  double decode_linear_us = 0.0;
  double prefill_linear_us_per_token = 0.0;
};

ComponentTimings time_components(const lserve::serve::EngineConfig& cfg,
                                 std::size_t decode_context,
                                 std::size_t prefill_history);

}  // namespace servebench
