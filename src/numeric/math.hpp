// Core numeric kernels shared by the attention implementations.
//
// The online-softmax accumulator is the scalar fold the attention oracles
// use: one (score, value) pair at a time into a running max, normalizer and
// output, the reduction FlashAttention/FlashDecoding-style kernels perform
// (the paged walk in src/attn does it per page span, in register tiles).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/tensor.hpp"

namespace lserve::num {

/// Dot product of two length-n float spans.
float dot(const float* a, const float* b, std::size_t n) noexcept;

/// y += alpha * x (length n).
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;

/// y *= alpha (length n).
void scale(float alpha, float* y, std::size_t n) noexcept;

/// Euclidean norm.
float l2_norm(const float* a, std::size_t n) noexcept;

/// Cosine similarity; returns 0 when either vector is ~zero.
float cosine_similarity(const float* a, const float* b, std::size_t n) noexcept;

/// In-place numerically-stable softmax over a row.
void softmax_inplace(float* row, std::size_t n) noexcept;

/// C = A * B. A is m x k, B is k x n, C is m x n (any row strides).
/// Register-tiled: 2 rows x 16 columns per tile (1 x 32 for a lone row),
/// kept in registers over the whole k loop. Every element starts at 0 and
/// adds a[i][k] * b[k][j] for ascending k, so a row's result is
/// bit-identical whatever rows share the call.
void matmul(ConstMatView a, ConstMatView b, MatView c) noexcept;

/// Indices of the k largest values in `scores` (ties broken by lower index),
/// returned in ascending index order (page tables must stay sorted so the
/// decode kernel walks memory forward).
std::vector<std::size_t> top_k_indices(std::span<const float> scores,
                                       std::size_t k);

/// Streaming softmax-weighted accumulation state for one query row.
///
/// Maintains the running maximum m, normalizer l and un-normalized output
/// acc so (score, value) pairs can be folded in any order:
///
///   for each token t:   fold_one(score_t, value_t)
///   finish():           out = acc / l
class OnlineSoftmax {
 public:
  explicit OnlineSoftmax(std::size_t dim);

  /// Folds a single (score, value-row) pair.
  void fold_one(float score, const float* value) noexcept;

  /// Writes the normalized output into `out` (length dim). If nothing was
  /// folded the output is all zeros.
  void finish(float* out) const noexcept;

  /// Running log-sum-exp of all folded scores (=-inf if none); used by
  /// accuracy metrics to compare attention mass across policies.
  float log_sum_exp() const noexcept;

 private:
  float max_ = 0.0f;
  float norm_ = 0.0f;   // sum of exp(score - max_)
  bool started_ = false;
  std::vector<float> acc_;
};

}  // namespace lserve::num
