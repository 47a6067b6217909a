// Prefill tile geometry, the Λ tile rule and block masks (LServe §3.1,
// §3.4).
//
// Prefill attention runs in TQ x TK tiles: a query tile's rows attend a key
// tile either fully (within the causal bound) or not at all. The causal,
// Λ (streaming) and MInference masks differ only in which key tiles they
// keep. The served kernel never branches on a mask inside its loop:
// attn::mask_spans turns a query tile's kept key tiles into the span list
// the page walk visits, so the walk's trip count is the live-tile count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lserve::attn {

/// Tile geometry for prefill attention.
struct PrefillTiling {
  std::size_t tile_q = 64;  ///< TQ (query rows per tile; >1 in prefill).
  std::size_t tile_k = 64;  ///< TK (key columns per tile; = page size).

  /// Query tile qb's diagonal: the key tile holding its last row, with
  /// rows clamped to the first `n_tokens` tokens.
  std::size_t diag_block(std::size_t qb, std::size_t n_tokens) const noexcept {
    return (std::min((qb + 1) * tile_q, n_tokens) - 1) / tile_k;
  }
};

/// Λ-mask geometry in key tiles: attention sinks plus a local band.
struct StreamingBlocks {
  std::size_t sink_blocks = 1;
  std::size_t local_blocks = 2;

  /// The Λ tile rule: key tile kb is kept for a query tile whose diagonal
  /// is `diag` iff kb is a sink tile or within `local_blocks` of the
  /// diagonal. Callers bound kb by the diagonal (causality).
  bool keeps(std::size_t kb, std::size_t diag) const noexcept {
    return kb < sink_blocks || kb + local_blocks > diag;
  }
};

/// Dense/sparse decision table over (q_block, k_block) tiles.
class BlockMask {
 public:
  BlockMask() = default;
  BlockMask(std::size_t q_blocks, std::size_t k_blocks, bool keep_all = false);

  std::size_t q_blocks() const noexcept { return q_blocks_; }
  std::size_t k_blocks() const noexcept { return k_blocks_; }

  bool kept(std::size_t qb, std::size_t kb) const noexcept {
    return keep_[qb * k_blocks_ + kb] != 0;
  }
  void set(std::size_t qb, std::size_t kb, bool keep) noexcept {
    keep_[qb * k_blocks_ + kb] = keep ? 1 : 0;
  }

  /// Fully-causal mask: every tile at or below the diagonal is kept.
  /// `tile_q` / `tile_k` are the tile heights/widths in tokens; `n_tokens`
  /// bounds the causal frontier.
  static BlockMask causal(std::size_t n_tokens, std::size_t tile_q,
                          std::size_t tile_k);

  /// Λ-shaped streaming mask (attention sinks + local window) over a
  /// causal base: StreamingBlocks::keeps at each query tile's diagonal.
  /// The most recent (diagonal) block is always kept.
  static BlockMask streaming(std::size_t n_tokens, std::size_t tile_q,
                             std::size_t tile_k, std::size_t sink_blocks,
                             std::size_t local_blocks);

  /// Number of kept tiles.
  std::size_t kept_blocks() const noexcept;

  /// Sparsity r relative to the causal mask: fraction of causal tiles that
  /// were dropped. Theoretical kernel speedup is 1 / (1 - r) (§3.1).
  double sparsity_vs_causal(std::size_t n_tokens, std::size_t tile_q,
                            std::size_t tile_k) const noexcept;

 private:
  std::size_t q_blocks_ = 0;
  std::size_t k_blocks_ = 0;
  std::vector<std::uint8_t> keep_;
};

}  // namespace lserve::attn
