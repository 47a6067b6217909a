#include "numeric/rng.hpp"

#include <cassert>
#include <cmath>

namespace lserve::num {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t s = seed ^ (0xD1B54A32D192ED03ull * (stream + 1));
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::uniform(float lo, float hi) noexcept {
  return lo + static_cast<float>(next_double()) * (hi - lo);
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ull - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

float Rng::gaussian() noexcept {
  if (has_cached_gauss_) {
    has_cached_gauss_ = false;
    return cached_gauss_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  cached_gauss_ = static_cast<float>(mag * std::sin(two_pi * u2));
  has_cached_gauss_ = true;
  return static_cast<float>(mag * std::cos(two_pi * u2));
}

float Rng::gaussian(float mean, float stddev) noexcept {
  return mean + stddev * gaussian();
}

void Rng::fill_gaussian(std::vector<float>& out, float stddev) noexcept {
  for (auto& v : out) v = gaussian(0.0f, stddev);
}

std::vector<float> Rng::unit_vector(std::size_t dim) {
  std::vector<float> v(dim);
  double norm_sq = 0.0;
  do {
    fill_gaussian(v, 1.0f);
    norm_sq = 0.0;
    for (float x : v) norm_sq += static_cast<double>(x) * x;
  } while (norm_sq < 1e-12);
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (auto& x : v) x *= inv;
  return v;
}

}  // namespace lserve::num
