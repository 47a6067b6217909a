// Unit & property tests for the numeric substrate (src/numeric).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "numeric/math.hpp"
#include "numeric/rng.hpp"
#include "numeric/simd.hpp"
#include "numeric/tensor.hpp"

namespace lserve::num {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitSeedDecorrelatesStreams) {
  EXPECT_NE(split_seed(7, 0), split_seed(7, 1));
  EXPECT_NE(split_seed(7, 0), split_seed(8, 0));
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NextBelowUnbiasedSupport) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.next_below(7)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, UnitVectorHasUnitNorm) {
  Rng rng(13);
  for (std::size_t d : {2u, 16u, 128u}) {
    const auto v = rng.unit_vector(d);
    EXPECT_NEAR(l2_norm(v.data(), d), 1.0f, 1e-5f);
  }
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(17);
  const auto p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (auto i : p) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Math, DotMatchesNaive) {
  Rng rng(21);
  for (std::size_t n : {1u, 3u, 4u, 7u, 64u, 129u}) {
    std::vector<float> a(n), b(n);
    rng.fill_gaussian(a, 1.0f);
    rng.fill_gaussian(b, 1.0f);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      ref += static_cast<double>(a[i]) * b[i];
    EXPECT_NEAR(dot(a.data(), b.data(), n), ref, 1e-3);
  }
}

TEST(Math, SoftmaxSumsToOneAndOrders) {
  std::vector<float> row{1.0f, 3.0f, 2.0f, -1.0f};
  softmax_inplace(row.data(), row.size());
  float sum = std::accumulate(row.begin(), row.end(), 0.0f);
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(row[1], row[2]);
  EXPECT_GT(row[2], row[0]);
  EXPECT_GT(row[0], row[3]);
}

TEST(Math, SoftmaxStableForLargeInputs) {
  std::vector<float> row{1000.0f, 1001.0f, 999.0f};
  softmax_inplace(row.data(), row.size());
  EXPECT_TRUE(std::isfinite(row[0]));
  EXPECT_NEAR(row[0] + row[1] + row[2], 1.0f, 1e-5f);
}

// The walk's lane exp against std::exp in double precision.
TEST(Math, ExpLanesMatchesStdExp) {
  constexpr std::size_t kSteps = 870000;  // [-87, 0] in steps of 1e-4
  double worst = 0.0;
  for (std::size_t i = 0; i <= kSteps; i += 4) {
    f32x4 x;
    for (std::size_t l = 0; l < 4; ++l) {
      x[l] = static_cast<float>(-static_cast<double>(std::min(i + l, kSteps)) *
                                1e-4);
    }
    const f32x4 y = exp_lanes(x);
    for (std::size_t l = 0; l < 4; ++l) {
      const double ref = std::exp(static_cast<double>(x[l]));
      worst = std::max(worst, std::fabs(y[l] - ref) / ref);
    }
  }
  EXPECT_LE(worst, 2.4e-7);
  EXPECT_EQ(exp_lanes(splat(0.0f))[0], 1.0f);
}

// Inputs at or below the clamp (-87.33) give e^-87.33, a normal float.
TEST(Math, ExpLanesBelowRangeIsTinyAndFinite) {
  const float inf = std::numeric_limits<float>::infinity();
  const f32x4 y = exp_lanes(f32x4{-87.34f, -100.0f, -1e30f, -inf});
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_TRUE(std::isfinite(y[l])) << l;
    EXPECT_GE(y[l], 0.0f) << l;
    EXPECT_LE(y[l], 1.2e-38f) << l;
  }
}

TEST(Math, MatmulMatchesNaive) {
  Rng rng(23);
  Tensor a(5, 7), b(7, 4), c(5, 4);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.gaussian();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.gaussian();
  matmul(a.view(), b.view(), c.view());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double ref = 0.0;
      for (std::size_t k = 0; k < 7; ++k) {
        ref += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      EXPECT_NEAR(c.at(i, j), ref, 1e-4);
    }
  }
}

// num::matmul's contract: every element starts at 0 and adds
// a[i][k]·b[k][j] for ascending k in float, at any tile shape.
void ascending_k_matmul(ConstMatView a, ConstMatView b, MatView c) {
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t j = 0; j < b.cols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols; ++k) acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
}

TEST(Math, MatmulBitIdenticalToAscendingKSums) {
  Rng rng(31);
  for (std::size_t m : {1, 2, 3, 5, 128}) {
    for (std::size_t n : {1, 3, 4, 15, 16, 17, 64, 256}) {
      for (std::size_t k : {1, 7, 128}) {
        Tensor a(m, k), b(k, n), c(m, n, 7.0f), ref(m, n);
        for (Tensor* t : {&a, &b}) {
          for (std::size_t i = 0; i < t->size(); ++i) {
            t->data()[i] = rng.gaussian();
          }
        }
        matmul(a.view(), b.view(), c.view());
        ascending_k_matmul(a.view(), b.view(), ref.view());
        EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                  0)
            << "[" << m << "x" << k << "] x [" << k << "x" << n << "]";
      }
    }
  }
}

// Row and column views of wider matrices, as the prefill forward passes
// them: strided rows in, a sub-block out, nothing outside it written.
TEST(Math, MatmulStridedViewsBitIdentical) {
  Rng rng(37);
  Tensor a_full(9, 140), b_full(128, 300), c_full(9, 280, 7.0f);
  for (Tensor* t : {&a_full, &b_full}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  const ConstMatView a = a_full.view().rows_slice(2, 5).cols_slice(3, 128);
  const ConstMatView b = b_full.view().cols_slice(11, 259);
  const MatView c = c_full.view().rows_slice(1, 5).cols_slice(13, 259);
  matmul(a, b, c);
  Tensor ref(5, 259);
  ascending_k_matmul(a, b, ref.view());
  for (std::size_t i = 0; i < c_full.rows(); ++i) {
    for (std::size_t j = 0; j < c_full.cols(); ++j) {
      const bool inside = i >= 1 && i < 6 && j >= 13 && j < 13 + 259;
      const float want = inside ? ref.at(i - 1, j - 13) : 7.0f;
      EXPECT_EQ(std::memcmp(&c_full.at(i, j), &want, sizeof(float)), 0)
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(Math, MatmulAbtMatchesNaive) {
  Rng rng(29);
  Tensor a(3, 6), b(5, 6), c(3, 5);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.gaussian();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.gaussian();
  matmul_abt(a.view(), b.view(), c.view());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double ref = 0.0;
      for (std::size_t k = 0; k < 6; ++k) {
        ref += static_cast<double>(a.at(i, k)) * b.at(j, k);
      }
      EXPECT_NEAR(c.at(i, j), ref, 1e-4);
    }
  }
}

TEST(Math, TopKReturnsSortedIndicesOfLargest) {
  std::vector<float> scores{0.1f, 5.0f, 3.0f, 5.0f, -1.0f, 4.0f};
  const auto idx = top_k_indices(scores, 3);
  ASSERT_EQ(idx.size(), 3u);
  // Top-3 values are 5.0 (idx 1), 5.0 (idx 3), 4.0 (idx 5); ascending order.
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 3u);
  EXPECT_EQ(idx[2], 5u);
}

TEST(Math, TopKClampsToSize) {
  std::vector<float> scores{1.0f, 2.0f};
  EXPECT_EQ(top_k_indices(scores, 10).size(), 2u);
  EXPECT_TRUE(top_k_indices(scores, 0).empty());
}

class OnlineSoftmaxParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OnlineSoftmaxParam, MatchesBatchSoftmax) {
  const std::size_t n = GetParam();
  const std::size_t d = 8;
  Rng rng(31 + n);
  std::vector<float> scores(n);
  Tensor values(n, d);
  rng.fill_gaussian(scores, 3.0f);
  for (std::size_t i = 0; i < values.size(); ++i)
    values.data()[i] = rng.gaussian();

  OnlineSoftmax acc(d);
  acc.fold(scores.data(), values.data(), n, d);
  std::vector<float> out(d);
  acc.finish(out.data());

  std::vector<float> probs = scores;
  softmax_inplace(probs.data(), n);
  std::vector<float> ref(d, 0.0f);
  for (std::size_t i = 0; i < n; ++i)
    axpy(probs[i], values.row(i), ref.data(), d);

  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OnlineSoftmaxParam,
                         ::testing::Values(1, 2, 3, 17, 64, 255));

TEST(OnlineSoftmax, FoldOrderInvariance) {
  const std::size_t d = 4;
  Rng rng(37);
  std::vector<float> scores(20);
  Tensor values(20, d);
  rng.fill_gaussian(scores, 5.0f);
  for (std::size_t i = 0; i < values.size(); ++i)
    values.data()[i] = rng.gaussian();

  OnlineSoftmax fwd(d), rev(d);
  for (std::size_t i = 0; i < 20; ++i)
    fwd.fold_one(scores[i], values.row(i));
  for (std::size_t i = 20; i > 0; --i)
    rev.fold_one(scores[i - 1], values.row(i - 1));
  std::vector<float> a(d), b(d);
  fwd.finish(a.data());
  rev.finish(b.data());
  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(a[c], b[c], 1e-4f);
  EXPECT_NEAR(fwd.log_sum_exp(), rev.log_sum_exp(), 1e-4f);
}

TEST(OnlineSoftmax, EmptyYieldsZeros) {
  OnlineSoftmax acc(3);
  std::vector<float> out(3, 42.0f);
  acc.finish(out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
  EXPECT_TRUE(std::isinf(acc.log_sum_exp()));
}

TEST(OnlineSoftmax, ResetClearsState) {
  OnlineSoftmax acc(2);
  const float v[2] = {1.0f, 2.0f};
  acc.fold_one(0.5f, v);
  acc.reset();
  std::vector<float> out(2, 9.0f);
  acc.finish(out.data());
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(Tensor, ViewsShareStorage) {
  Tensor t(3, 4);
  t.at(1, 2) = 7.0f;
  MatView v = t.view();
  EXPECT_EQ(v.at(1, 2), 7.0f);
  v.at(1, 2) = 8.0f;
  EXPECT_EQ(t.at(1, 2), 8.0f);
}

TEST(Tensor, ColsSliceSelectsHead) {
  Tensor t(2, 6);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      t.at(r, c) = static_cast<float>(10 * r + c);
  const MatView head1 = t.view().cols_slice(3, 3);
  EXPECT_EQ(head1.at(0, 0), 3.0f);
  EXPECT_EQ(head1.at(1, 2), 15.0f);
  EXPECT_EQ(head1.stride, 6u);
}

TEST(Tensor, RowsSliceBounds) {
  Tensor t(5, 2, 1.5f);
  const MatView mid = t.view().rows_slice(1, 3);
  EXPECT_EQ(mid.rows, 3u);
  EXPECT_EQ(mid.at(0, 0), 1.5f);
}

TEST(Math, CosineSimilarityProperties) {
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  std::vector<float> zero{0.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(a.data(), a.data(), 2), 1.0f, 1e-6f);
  EXPECT_NEAR(cosine_similarity(a.data(), b.data(), 2), 0.0f, 1e-6f);
  EXPECT_EQ(cosine_similarity(a.data(), zero.data(), 2), 0.0f);
}

}  // namespace
}  // namespace lserve::num
