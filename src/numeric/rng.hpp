// Deterministic random number generation for synthetic weights and workloads.
//
// All randomness in the library flows through Rng so that every experiment is
// exactly reproducible from a seed. The generator is splitmix64-seeded
// xoshiro256**, which is fast, has a 256-bit state, and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace lserve::num {

/// Counter-based seed derivation: maps (seed, stream) pairs to independent
/// generator states so that e.g. each layer / head / sequence can draw from
/// its own stream without correlation.
std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// xoshiro256** pseudo-random generator with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double next_double() noexcept;

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  float gaussian() noexcept;

  /// Normal with the given mean / stddev.
  float gaussian(float mean, float stddev) noexcept;

  /// Fills `out` with iid N(0, stddev^2).
  void fill_gaussian(std::vector<float>& out, float stddev) noexcept;

  /// Random unit vector of dimension `dim`.
  std::vector<float> unit_vector(std::size_t dim);

 private:
  std::array<std::uint64_t, 4> state_{};
  bool has_cached_gauss_ = false;
  float cached_gauss_ = 0.0f;
};

}  // namespace lserve::num
