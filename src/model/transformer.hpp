// Transformer simulator: the non-attention compute path of the served
// model (embeddings, RMSNorm, QKV/output projections, SwiGLU FFN, tied
// readout), with deterministic synthetic weights.
//
// The attention operator itself is deliberately NOT here — serving engines
// inject their own attention implementation between qkv_project() and
// output_project(), which is exactly the seam LServe modifies. All engines
// (LServe and baselines) share this substrate so end-to-end comparisons
// vary only the attention policy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/model_config.hpp"
#include "numeric/rope.hpp"
#include "numeric/tensor.hpp"

namespace lserve::model {

/// Per-layer weights of the simulated network.
struct LayerWeights {
  num::Tensor wq;   ///< [hidden x hidden]
  num::Tensor wk;   ///< [hidden x kv_dim]
  num::Tensor wv;   ///< [hidden x kv_dim]
  num::Tensor wo;   ///< [hidden x hidden]
  num::Tensor w_up;    ///< [hidden x ffn]
  num::Tensor w_gate;  ///< [hidden x ffn]
  num::Tensor w_down;  ///< [ffn x hidden]
};

/// Deterministic-weight transformer compute substrate.
class Transformer {
 public:
  Transformer(ModelConfig cfg, std::uint64_t seed);

  const ModelConfig& config() const noexcept { return cfg_; }

  /// Embeds token ids into hidden states ([n x hidden]).
  num::Tensor embed(std::span<const std::int32_t> ids) const;

  /// RMSNorm of `x` into `out` (same shape), with the layer's norm weight.
  void rms_norm(num::ConstMatView x, std::size_t layer,
                num::MatView out) const;

  /// Projects normalized hidden states into q/k/v and applies RoPE at
  /// absolute positions [pos0, pos0+n). q: [n x hidden], k/v: [n x kv_dim].
  void qkv_project(num::ConstMatView normed, std::size_t layer,
                   std::size_t pos0, num::MatView q, num::MatView k,
                   num::MatView v) const;

  /// out += attn_result * Wo (residual add onto `hidden`).
  void output_project(num::ConstMatView attn_result, std::size_t layer,
                      num::MatView hidden) const;

  /// SwiGLU FFN with pre-norm and residual add, in place on `hidden`.
  void ffn(num::MatView hidden, std::size_t layer) const;

  /// Tied-embedding readout: argmax token id for one hidden row.
  std::int32_t readout_argmax(const float* hidden_row) const;

  /// Full logits for one hidden row (for tests).
  std::vector<float> readout_logits(const float* hidden_row) const;

 private:
  ModelConfig cfg_;
  num::RopeTable rope_;
  num::Tensor embedding_;              // [vocab x hidden]
  std::vector<LayerWeights> layers_;
  std::vector<std::vector<float>> norm1_;  // per-layer RMSNorm gains
  std::vector<std::vector<float>> norm2_;
};

}  // namespace lserve::model
