// Dynamic prefill block-sparsity (MInference-style), used both as the
// optional LServe prefill mode for very long inputs (§4.3: "compatible with
// the prefilling dynamic sparsity in MInference, activated after 128K") and
// as the MInference baseline's policy.
//
// The mask is estimated from pooled Q/K block representatives: block-mean
// queries against block-mean keys approximate which key tiles matter for
// each query tile ("vertical" stripes), and the sink + diagonal/local tiles
// ("slash") are always kept. The estimation cost is O(n^2 / (TQ*TK)),
// negligible next to attention itself.
#pragma once

#include <cstddef>

#include "attn/block_mask.hpp"
#include "numeric/tensor.hpp"

namespace lserve::sparse {

/// Policy knobs for the dynamic prefill mask.
struct DynamicPrefillConfig {
  double keep_ratio = 0.25;     ///< fraction of causal tiles kept per row.
  std::size_t sink_blocks = 1;  ///< always-kept leading tiles.
  std::size_t local_blocks = 2; ///< always-kept diagonal band (in tiles).
};

/// Builds the dynamic block mask for one head's prefill.
/// q, k: [n x d] (post-RoPE). The mask always contains the causal
/// diagonal, sinks, and local band; remaining budget goes to the
/// highest-scoring pooled tiles.
attn::BlockMask build_dynamic_prefill_mask(num::ConstMatView q,
                                           num::ConstMatView k,
                                           attn::PrefillTiling tiling,
                                           const DynamicPrefillConfig& cfg,
                                           float scale);

}  // namespace lserve::sparse
