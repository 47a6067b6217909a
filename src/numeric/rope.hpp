// Rotary position embeddings (RoPE), as used by the Llama family.
//
// Queries and keys are rotated in 2-D sub-planes with frequencies
// theta_i = base^(-2i/D). The model substrate applies RoPE before keys are
// written into the paged cache, matching real serving engines (keys are
// cached post-rotation so decode never re-rotates history).
#pragma once

#include <cstddef>
#include <vector>

namespace lserve::num {

/// Precomputed RoPE frequency table for a head dimension.
class RopeTable {
 public:
  /// `head_dim` must be even. `base` is the theta base (Llama uses 1e4;
  /// long-context variants raise it, e.g. Llama-3 Gradient uses ~1e8).
  RopeTable(std::size_t head_dim, float base = 10000.0f);

  std::size_t head_dim() const noexcept { return inv_freq_.size() * 2; }

  /// Rotates one head row in place for absolute position `pos`.
  void apply(float* row, std::size_t pos) const noexcept;

 private:
  std::vector<float> inv_freq_;
};

}  // namespace lserve::num
