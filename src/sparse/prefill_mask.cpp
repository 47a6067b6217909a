#include "sparse/prefill_mask.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::sparse {

attn::BlockMask build_dynamic_prefill_mask(num::ConstMatView q,
                                           num::ConstMatView k,
                                           attn::PrefillTiling tiling,
                                           const DynamicPrefillConfig& cfg,
                                           float scale) {
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  const std::size_t tq = tiling.tile_q;
  const std::size_t tk = tiling.tile_k;
  const std::size_t q_blocks = (n + tq - 1) / tq;
  const std::size_t k_blocks = (n + tk - 1) / tk;

  // Block-mean pooling of queries and keys.
  num::Tensor q_pool(q_blocks, d);
  num::Tensor k_pool(k_blocks, d);
  for (std::size_t qb = 0; qb < q_blocks; ++qb) {
    const std::size_t r0 = qb * tq;
    const std::size_t rows = std::min(tq, n - r0);
    float* dst = q_pool.row(qb);
    for (std::size_t r = 0; r < rows; ++r) {
      num::axpy(1.0f / static_cast<float>(rows), q.row(r0 + r), dst, d);
    }
  }
  for (std::size_t kb = 0; kb < k_blocks; ++kb) {
    const std::size_t c0 = kb * tk;
    const std::size_t cols = std::min(tk, n - c0);
    float* dst = k_pool.row(kb);
    for (std::size_t c = 0; c < cols; ++c) {
      num::axpy(1.0f / static_cast<float>(cols), k.row(c0 + c), dst, d);
    }
  }

  attn::BlockMask mask(q_blocks, k_blocks);
  const attn::StreamingBlocks forced{cfg.sink_blocks, cfg.local_blocks};
  std::vector<float> scores;
  for (std::size_t qb = 0; qb < q_blocks; ++qb) {
    const std::size_t diag = tiling.diag_block(qb, n);
    const std::size_t causal_blocks = diag + 1;

    // Forced structure: the Λ tiles (sinks + local diagonal band).
    for (std::size_t kb = 0; kb < causal_blocks; ++kb) {
      if (forced.keeps(kb, diag)) mask.set(qb, kb, true);
    }

    // Budget for estimated "vertical" tiles.
    const std::size_t budget = static_cast<std::size_t>(
        std::ceil(cfg.keep_ratio * static_cast<double>(causal_blocks)));
    scores.assign(causal_blocks, 0.0f);
    for (std::size_t kb = 0; kb < causal_blocks; ++kb) {
      scores[kb] =
          scale * num::dot(q_pool.row(qb), k_pool.row(kb), d);
    }
    for (std::size_t kb : num::top_k_indices(scores, budget)) {
      mask.set(qb, kb, true);
    }
  }
  return mask;
}

}  // namespace lserve::sparse
