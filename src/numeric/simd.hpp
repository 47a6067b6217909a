// Four-lane float vectors for the register-tiled kernels (the paged
// attention walk and num::matmul).
//
// The types use the GCC/Clang vector extension, which both compilers lower
// to SSE2 on x86-64 (NEON on arm64) with no ISA flag, so the kernels stay
// on one code path at the baseline ISA. Only features both compilers accept
// are used: element-wise arithmetic, explicit splats, lane comparisons that
// yield all-ones/all-zero masks, `& | ~` blends, same-size casts (bit
// reinterpretation) and __builtin_convertvector. Each lane is plain IEEE
// single precision, so a lane loop sums in exactly the order it is written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lserve::num {

typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));

inline f32x4 splat(float x) noexcept { return f32x4{x, x, x, x}; }
inline i32x4 splat(std::int32_t x) noexcept { return i32x4{x, x, x, x}; }

/// Unaligned 4-float load/store (any float pointer, any row stride).
inline f32x4 load4(const float* p) noexcept {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, f32x4 v) noexcept {
  std::memcpy(p, &v, sizeof v);
}
/// Loads the first n < 4 floats at p; the other lanes are +0.
inline f32x4 load_partial(const float* p, std::size_t n) noexcept {
  f32x4 v = {};
  std::memcpy(&v, p, n * sizeof(float));
  return v;
}

/// Per lane: mask ? a : b, for a mask from a lane comparison.
inline f32x4 select(i32x4 mask, f32x4 a, f32x4 b) noexcept {
  return (f32x4)((mask & (i32x4)a) | (~mask & (i32x4)b));
}
inline f32x4 min4(f32x4 a, f32x4 b) noexcept { return select(a < b, a, b); }
inline f32x4 max4(f32x4 a, f32x4 b) noexcept { return select(a > b, a, b); }

/// Lane-wise e^x: the Cephes expf range reduction and degree-7 polynomial.
/// Inputs are clamped to [-87.33, 88.37], so every result is a finite
/// normal float: at most 1.19e-38 at or below the bottom of the range.
/// Over [-87, 0] the relative error is below 1e-7 against the exact value
/// (1.2e-7 against std::exp in float), and exp(0) is exactly 1.
inline f32x4 exp_lanes(f32x4 x) noexcept {
  x = max4(min4(x, splat(88.37f)), splat(-87.33f));
  // n = floor(x·log2(e) + 1/2): truncate, then step down where truncation
  // rounded a negative value up (no SSE4.1 round at the baseline ISA).
  const f32x4 fx = x * splat(1.44269504088896341f) + splat(0.5f);
  i32x4 n = __builtin_convertvector(fx, i32x4);
  n += __builtin_convertvector(n, f32x4) > fx;  // true lanes are -1
  const f32x4 nf = __builtin_convertvector(n, f32x4);
  // r = x − n·ln2, with ln2 split in two for precision.
  const f32x4 r = x - nf * splat(0.693359375f) - nf * splat(-2.12194440e-4f);
  f32x4 y = splat(1.9875691500e-4f);
  y = y * r + splat(1.3981999507e-3f);
  y = y * r + splat(8.3334519073e-3f);
  y = y * r + splat(4.1665795894e-2f);
  y = y * r + splat(1.6666665459e-1f);
  y = y * r + splat(5.0000001201e-1f);
  y = y * (r * r) + r + splat(1.0f);
  // Scale by 2^n through the exponent field.
  return y * (f32x4)((n + splat(std::int32_t{127})) << splat(std::int32_t{23}));
}

}  // namespace lserve::num
