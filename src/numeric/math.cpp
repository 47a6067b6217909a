#include "numeric/math.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "numeric/simd.hpp"

namespace lserve::num {

float dot(const float* a, const float* b, std::size_t n) noexcept {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float alpha, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] *= alpha;
}

float l2_norm(const float* a, std::size_t n) noexcept {
  return std::sqrt(dot(a, a, n));
}

float cosine_similarity(const float* a, const float* b,
                        std::size_t n) noexcept {
  const float na = l2_norm(a, n);
  const float nb = l2_norm(b, n);
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return dot(a, b, n) / (na * nb);
}

void softmax_inplace(float* row, std::size_t n) noexcept {
  if (n == 0) return;
  const float m = *std::max_element(row, row + n);
  float sum = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - m);
    sum += row[i];
  }
  const float inv = 1.0f / sum;
  for (std::size_t i = 0; i < n; ++i) row[i] *= inv;
}

namespace {

// One tile of C = A·B: R rows x 4C columns from (i, j), held in R x C
// four-lane accumulators over the whole k loop.
template <std::size_t R, std::size_t C>
void matmul_tile(ConstMatView a, ConstMatView b, MatView c, std::size_t i,
                 std::size_t j) noexcept {
  const float* ar[R];
  for (std::size_t r = 0; r < R; ++r) ar[r] = a.row(i + r);
  f32x4 acc[R][C] = {};
  // Unrolled by the compiler (Clang reads the same pragma): on a Sapphire
  // Rapids Xeon this took 0.84x the rolled loop's time at 128 rows, while
  // hand-unrolled forms of the loop took 0.90-0.92x.
#pragma GCC unroll 4
  for (std::size_t k = 0; k < a.cols; ++k) {
    const float* bk = b.row(k) + j;
    f32x4 bv[C];
    for (std::size_t q = 0; q < C; ++q) bv[q] = load4(bk + 4 * q);
    for (std::size_t r = 0; r < R; ++r) {
      const f32x4 x = splat(ar[r][k]);
      for (std::size_t q = 0; q < C; ++q) acc[r][q] += x * bv[q];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < C; ++q) {
      store4(c.row(i + r) + j + 4 * q, acc[r][q]);
    }
  }
}

// Rows [i, i + R) of C: 8 accumulators per tile (2 x 16 or 1 x 32
// columns), then 4-column tiles, then single columns.
template <std::size_t R>
void matmul_rows(ConstMatView a, ConstMatView b, MatView c,
                 std::size_t i) noexcept {
  constexpr std::size_t kWide = 8 / R;
  std::size_t j = 0;
  for (; j + 4 * kWide <= b.cols; j += 4 * kWide) {
    matmul_tile<R, kWide>(a, b, c, i, j);
  }
  for (; j + 4 <= b.cols; j += 4) matmul_tile<R, 1>(a, b, c, i, j);
  for (; j < b.cols; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols; ++k) {
        acc += a.at(i + r, k) * b.at(k, j);
      }
      c.at(i + r, j) = acc;
    }
  }
}

}  // namespace

void matmul(ConstMatView a, ConstMatView b, MatView c) noexcept {
  assert(a.cols == b.rows && c.rows == a.rows && c.cols == b.cols);
  std::size_t i = 0;
  for (; i + 2 <= a.rows; i += 2) matmul_rows<2>(a, b, c, i);
  if (i < a.rows) matmul_rows<1>(a, b, c, i);
}

std::vector<std::size_t> top_k_indices(std::span<const float> scores,
                                       std::size_t k) {
  const std::size_t n = scores.size();
  k = std::min(k, n);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t l, std::size_t r) {
                      if (scores[l] != scores[r]) return scores[l] > scores[r];
                      return l < r;
                    });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

OnlineSoftmax::OnlineSoftmax(std::size_t dim) : acc_(dim, 0.0f) {}

void OnlineSoftmax::fold_one(float score, const float* value) noexcept {
  if (!started_) {
    started_ = true;
    max_ = score;
    norm_ = 1.0f;
    for (std::size_t d = 0; d < acc_.size(); ++d) acc_[d] = value[d];
    return;
  }
  if (score <= max_) {
    const float w = std::exp(score - max_);
    norm_ += w;
    axpy(w, value, acc_.data(), acc_.size());
  } else {
    // New running max: rescale previous accumulation.
    const float c = std::exp(max_ - score);
    norm_ = norm_ * c + 1.0f;
    for (std::size_t d = 0; d < acc_.size(); ++d) {
      acc_[d] = acc_[d] * c + value[d];
    }
    max_ = score;
  }
}

void OnlineSoftmax::finish(float* out) const noexcept {
  if (!started_ || norm_ <= 0.0f) {
    std::fill(out, out + acc_.size(), 0.0f);
    return;
  }
  const float inv = 1.0f / norm_;
  for (std::size_t d = 0; d < acc_.size(); ++d) out[d] = acc_[d] * inv;
}

float OnlineSoftmax::log_sum_exp() const noexcept {
  if (!started_) return -std::numeric_limits<float>::infinity();
  return max_ + std::log(norm_);
}

}  // namespace lserve::num
