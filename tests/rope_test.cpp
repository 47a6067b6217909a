// Tests for rotary position embeddings (src/numeric/rope).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numeric/math.hpp"
#include "numeric/rng.hpp"
#include "numeric/rope.hpp"

namespace lserve::num {
namespace {

TEST(Rope, PreservesNorm) {
  const std::size_t d = 64;
  RopeTable rope(d);
  Rng rng(1);
  std::vector<float> v(d);
  rng.fill_gaussian(v, 1.0f);
  const float before = l2_norm(v.data(), d);
  rope.apply(v.data(), 1234);
  EXPECT_NEAR(l2_norm(v.data(), d), before, 1e-3f);
}

TEST(Rope, PositionZeroIsIdentity) {
  const std::size_t d = 32;
  RopeTable rope(d);
  Rng rng(2);
  std::vector<float> v(d), orig;
  rng.fill_gaussian(v, 1.0f);
  orig = v;
  rope.apply(v.data(), 0);
  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(v[c], orig[c], 1e-6f);
}

// The defining RoPE property: <rot(q,m), rot(k,n)> depends only on m-n.
TEST(Rope, RelativePositionProperty) {
  const std::size_t d = 64;
  RopeTable rope(d);
  Rng rng(3);
  std::vector<float> q(d), k(d);
  rng.fill_gaussian(q, 1.0f);
  rng.fill_gaussian(k, 1.0f);

  auto rotated_dot = [&](std::size_t m, std::size_t n) {
    std::vector<float> qm = q, kn = k;
    rope.apply(qm.data(), m);
    rope.apply(kn.data(), n);
    return dot(qm.data(), kn.data(), d);
  };
  EXPECT_NEAR(rotated_dot(10, 3), rotated_dot(107, 100), 1e-3f);
  EXPECT_NEAR(rotated_dot(5, 5), rotated_dot(900, 900), 1e-3f);
}

TEST(Rope, HigherBaseRotatesSlower) {
  const std::size_t d = 8;
  RopeTable fast(d, 100.0f);
  RopeTable slow(d, 1e6f);
  std::vector<float> a{1, 0, 1, 0, 1, 0, 1, 0};
  std::vector<float> b = a;
  fast.apply(a.data(), 50);
  slow.apply(b.data(), 50);
  // The late channels (low frequency) should move less under the big base.
  EXPECT_GT(std::abs(b[d - 2] - 1.0f) + 1e-3f, 0.0f);
  EXPECT_LT(std::abs(b[d - 2] - 1.0f), std::abs(a[d - 2] - 1.0f) + 1e-3f);
}

}  // namespace
}  // namespace lserve::num
