#include "attn/block_mask.hpp"

namespace lserve::attn {
namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace

BlockMask::BlockMask(std::size_t q_blocks, std::size_t k_blocks, bool keep_all)
    : q_blocks_(q_blocks),
      k_blocks_(k_blocks),
      keep_(q_blocks * k_blocks, keep_all ? 1 : 0) {}

BlockMask BlockMask::causal(std::size_t n_tokens, std::size_t tile_q,
                            std::size_t tile_k) {
  BlockMask m(ceil_div(n_tokens, tile_q), ceil_div(n_tokens, tile_k));
  const PrefillTiling tiling{tile_q, tile_k};
  for (std::size_t qb = 0; qb < m.q_blocks_; ++qb) {
    const std::size_t diag = tiling.diag_block(qb, n_tokens);
    for (std::size_t kb = 0; kb <= diag; ++kb) m.set(qb, kb, true);
  }
  return m;
}

BlockMask BlockMask::streaming(std::size_t n_tokens, std::size_t tile_q,
                               std::size_t tile_k, std::size_t sink_blocks,
                               std::size_t local_blocks) {
  BlockMask m(ceil_div(n_tokens, tile_q), ceil_div(n_tokens, tile_k));
  const PrefillTiling tiling{tile_q, tile_k};
  const StreamingBlocks lambda{sink_blocks, local_blocks};
  for (std::size_t qb = 0; qb < m.q_blocks_; ++qb) {
    const std::size_t diag = tiling.diag_block(qb, n_tokens);
    for (std::size_t kb = 0; kb <= diag; ++kb) {
      if (lambda.keeps(kb, diag)) m.set(qb, kb, true);
    }
  }
  return m;
}

std::size_t BlockMask::kept_blocks() const noexcept {
  std::size_t n = 0;
  for (auto v : keep_) n += v;
  return n;
}

double BlockMask::sparsity_vs_causal(std::size_t n_tokens, std::size_t tile_q,
                                     std::size_t tile_k) const noexcept {
  const PrefillTiling tiling{tile_q, tile_k};
  std::size_t causal_total = 0;
  for (std::size_t qb = 0; qb < q_blocks_; ++qb) {
    causal_total += tiling.diag_block(qb, n_tokens) + 1;
  }
  if (causal_total == 0) return 0.0;
  const std::size_t kept = kept_blocks();
  return 1.0 - static_cast<double>(kept) / static_cast<double>(causal_total);
}

}  // namespace lserve::attn
