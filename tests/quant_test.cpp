// Tests for per-token asymmetric KV quantization (src/numeric/quant).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "numeric/quant.hpp"
#include "numeric/rng.hpp"

namespace lserve::num {
namespace {

std::vector<float> random_row(std::size_t n, float scale, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> row(n);
  rng.fill_gaussian(row, scale);
  return row;
}

TEST(QuantParams, CoverRange) {
  const std::vector<float> row{-2.0f, 0.0f, 3.0f};
  const QuantParams p = compute_quant_params(row.data(), row.size(), 8);
  // Min maps to code 0, max to code 255.
  EXPECT_NEAR((-2.0f) / p.scale + p.zero_point, 0.0f, 1e-3f);
  EXPECT_NEAR(3.0f / p.scale + p.zero_point, 255.0f, 1e-2f);
}

TEST(QuantParams, ConstantRowRoundTrips) {
  const std::vector<float> row(16, 1.25f);
  for (int bits : {4, 8}) {
    const QuantParams p = compute_quant_params(row.data(), row.size(), bits);
    EXPECT_GT(p.scale, 0.0f);
    std::vector<std::uint8_t> codes(16);
    std::vector<float> back(16);
    if (bits == 8) {
      quantize_row_int8(row.data(), 16, p, codes.data());
      dequantize_row_int8(codes.data(), 16, p, back.data());
    } else {
      quantize_row_int4(row.data(), 16, p, codes.data());
      dequantize_row_int4(codes.data(), 16, p, back.data());
    }
    for (float x : back) EXPECT_NEAR(x, 1.25f, 1e-4f);
  }
}

// Property: round-trip error is bounded by half a quantization step.
class QuantRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, float, std::size_t>> {};

TEST_P(QuantRoundTrip, ErrorWithinHalfStep) {
  const auto [bits, scale, n] = GetParam();
  const auto row = random_row(n, scale, 1000 + n + bits);
  const QuantParams p = compute_quant_params(row.data(), n, bits);
  const float bound = quant_error_bound(row.data(), n, bits) + 1e-6f;

  std::vector<std::uint8_t> codes(n);
  std::vector<float> back(n);
  if (bits == 8) {
    quantize_row_int8(row.data(), n, p, codes.data());
    dequantize_row_int8(codes.data(), n, p, back.data());
  } else {
    quantize_row_int4(row.data(), n, p, codes.data());
    dequantize_row_int4(codes.data(), n, p, back.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(back[i] - row[i]), bound)
        << "bits=" << bits << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantRoundTrip,
    ::testing::Combine(::testing::Values(4, 8),
                       ::testing::Values(0.1f, 1.0f, 10.0f),
                       ::testing::Values(std::size_t{7}, std::size_t{64},
                                         std::size_t{128})));

TEST(Int4Packing, OddLengthHandled) {
  const std::vector<float> row{1.0f, -1.0f, 0.5f};
  const QuantParams p = compute_quant_params(row.data(), 3, 4);
  std::vector<std::uint8_t> codes(2);
  std::vector<float> back(3);
  quantize_row_int4(row.data(), 3, p, codes.data());
  dequantize_row_int4(codes.data(), 3, p, back.data());
  const float bound = quant_error_bound(row.data(), 3, 4) + 1e-6f;
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_LE(std::abs(back[i] - row[i]), bound);
}

TEST(BytesPerElement, MatchesDtype) {
  EXPECT_DOUBLE_EQ(bytes_per_element(KvDtype::kFp16), 2.0);
  EXPECT_DOUBLE_EQ(bytes_per_element(KvDtype::kInt8), 1.0);
  EXPECT_DOUBLE_EQ(bytes_per_element(KvDtype::kInt4), 0.5);
  EXPECT_STREQ(dtype_name(KvDtype::kInt4), "int4");
}

class QuantizedRowsParam : public ::testing::TestWithParam<KvDtype> {};

TEST_P(QuantizedRowsParam, StoreLoadRoundTrip) {
  const KvDtype dtype = GetParam();
  const std::size_t rows = 5, dim = 32;
  QuantizedRows buf(rows, dim, dtype);
  Rng rng(77);
  std::vector<std::vector<float>> data(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    data[r] = random_row(dim, 2.0f, 50 + r);
    buf.store_row(r, data[r].data());
  }
  std::vector<float> back(dim);
  for (std::size_t r = 0; r < rows; ++r) {
    buf.load_row(r, back.data());
    const int bits = dtype == KvDtype::kInt4 ? 4 : 8;
    const float bound =
        dtype == KvDtype::kFp16
            ? 1e-7f
            : quant_error_bound(data[r].data(), dim, bits) + 1e-6f;
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_LE(std::abs(back[c] - data[r][c]), bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, QuantizedRowsParam,
                         ::testing::Values(KvDtype::kFp16, KvDtype::kInt8,
                                           KvDtype::kInt4));

// unpack_codes hands a kernel the raw codes of a row block; applying each
// row's (code - zero_point) * scale must reproduce load_row bit for bit,
// including odd dims (an int4 row then ends in a half-used byte).
TEST(QuantizedRows, UnpackCodesThenParamsEqualsLoadRow) {
  for (const KvDtype dtype : {KvDtype::kInt8, KvDtype::kInt4}) {
    for (const std::size_t dim : {std::size_t{16}, std::size_t{17}}) {
      const std::size_t rows = 6;
      QuantizedRows buf(rows, dim, dtype);
      for (std::size_t r = 0; r < rows; ++r) {
        buf.store_row(r, random_row(dim, 2.0f, 90 + r).data());
      }
      std::vector<float> codes(rows * dim), back(dim);
      buf.unpack_codes(rows, codes.data());
      for (std::size_t r = 0; r < rows; ++r) {
        buf.load_row(r, back.data());
        const QuantParams p = buf.params(r);
        for (std::size_t c = 0; c < dim; ++c) {
          const float code = codes[r * dim + c];
          EXPECT_EQ(code, std::nearbyint(code));
          EXPECT_EQ((code - p.zero_point) * p.scale, back[c])
              << dtype_name(dtype) << " dim " << dim << " row " << r;
        }
      }
    }
  }
}

TEST(QuantizedRows, DeviceBytesScaleWithPrecision) {
  const std::size_t rows = 16, dim = 64;
  QuantizedRows fp(rows, dim, KvDtype::kFp16);
  QuantizedRows i8(rows, dim, KvDtype::kInt8);
  QuantizedRows i4(rows, dim, KvDtype::kInt4);
  EXPECT_DOUBLE_EQ(fp.device_bytes(), rows * dim * 2.0);
  EXPECT_GT(fp.device_bytes(), i8.device_bytes());
  EXPECT_GT(i8.device_bytes(), i4.device_bytes());
  // int8 payload + per-row meta: rows*dim + rows*4.
  EXPECT_DOUBLE_EQ(i8.device_bytes(), rows * dim * 1.0 + rows * 4.0);
}

TEST(QuantizedRows, Int4HalvesPayloadVsInt8) {
  const std::size_t rows = 8, dim = 128;
  QuantizedRows i8(rows, dim, KvDtype::kInt8);
  QuantizedRows i4(rows, dim, KvDtype::kInt4);
  const double meta = rows * 4.0;
  EXPECT_DOUBLE_EQ((i4.device_bytes() - meta) * 2.0,
                   i8.device_bytes() - meta);
}

TEST(QuantizedRows, QuantizationPreservesDotProductsApproximately) {
  // The selector and kernels rely on q.k being faithful after KV4.
  const std::size_t dim = 128;
  Rng rng(99);
  const auto key = random_row(dim, 1.0f, 3);
  const auto query = random_row(dim, 1.0f, 4);
  QuantizedRows buf(1, dim, KvDtype::kInt4);
  buf.store_row(0, key.data());
  std::vector<float> back(dim);
  buf.load_row(0, back.data());
  double exact = 0.0, approx = 0.0;
  for (std::size_t c = 0; c < dim; ++c) {
    exact += static_cast<double>(query[c]) * key[c];
    approx += static_cast<double>(query[c]) * back[c];
  }
  // Error bound: ||q||_1 * (scale/2).
  double l1 = 0.0;
  for (float x : query) l1 += std::abs(x);
  const double bound =
      l1 * (quant_error_bound(key.data(), dim, 4) + 1e-6);
  EXPECT_LE(std::abs(exact - approx), bound);
}

}  // namespace
}  // namespace lserve::num
