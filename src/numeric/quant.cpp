#include "numeric/quant.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace lserve::num {

double bytes_per_element(KvDtype dtype) noexcept {
  switch (dtype) {
    case KvDtype::kFp16:
      return 2.0;
    case KvDtype::kInt8:
      return 1.0;
    case KvDtype::kInt4:
      return 0.5;
  }
  return 2.0;
}

const char* dtype_name(KvDtype dtype) noexcept {
  switch (dtype) {
    case KvDtype::kFp16:
      return "fp16";
    case KvDtype::kInt8:
      return "int8";
    case KvDtype::kInt4:
      return "int4";
  }
  return "?";
}

QuantParams compute_quant_params(const float* row, std::size_t n,
                                 int bits) noexcept {
  assert(bits == 4 || bits == 8);
  float lo = row[0], hi = row[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, row[i]);
    hi = std::max(hi, row[i]);
  }
  const float qmax = static_cast<float>((1 << bits) - 1);
  float scale = (hi - lo) / qmax;
  if (scale < 1e-10f) scale = 1e-10f;  // constant rows still round-trip
  QuantParams p;
  p.scale = scale;
  p.zero_point = -lo / scale;
  return p;
}

namespace {

inline std::uint32_t encode(float x, QuantParams p, std::uint32_t qmax) {
  const float q = std::nearbyint(x / p.scale + p.zero_point);
  const float clamped = std::min(std::max(q, 0.0f), static_cast<float>(qmax));
  return static_cast<std::uint32_t>(clamped);
}

inline float decode(std::uint32_t code, QuantParams p) {
  return (static_cast<float>(code) - p.zero_point) * p.scale;
}

// Packed 4-bit codes (low nibble first) to the floats 0..15.
void unpack_int4(const std::uint8_t* codes, std::size_t n,
                 float* out) noexcept {
  const std::size_t pairs = n / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    out[2 * i] = static_cast<float>(codes[i] & 0x0F);
    out[2 * i + 1] = static_cast<float>(codes[i] >> 4);
  }
  if (n & 1) out[n - 1] = static_cast<float>(codes[pairs] & 0x0F);
}

}  // namespace

void quantize_row_int8(const float* row, std::size_t n, QuantParams p,
                       std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(encode(row[i], p, 255));
  }
}

void dequantize_row_int8(const std::uint8_t* codes, std::size_t n,
                         QuantParams p, float* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = decode(codes[i], p);
}

void quantize_row_int4(const float* row, std::size_t n, QuantParams p,
                       std::uint8_t* out) noexcept {
  const std::size_t pairs = n / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::uint32_t lo = encode(row[2 * i], p, 15);
    const std::uint32_t hi = encode(row[2 * i + 1], p, 15);
    out[i] = static_cast<std::uint8_t>(lo | (hi << 4));
  }
  if (n & 1) {
    out[pairs] = static_cast<std::uint8_t>(encode(row[n - 1], p, 15));
  }
}

void dequantize_row_int4(const std::uint8_t* codes, std::size_t n,
                         QuantParams p, float* out) noexcept {
  const std::size_t pairs = n / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    out[2 * i] = decode(codes[i] & 0x0F, p);
    out[2 * i + 1] = decode(codes[i] >> 4, p);
  }
  if (n & 1) out[n - 1] = decode(codes[pairs] & 0x0F, p);
}

QuantizedRows::QuantizedRows(std::size_t rows, std::size_t dim, KvDtype dtype)
    : rows_(rows), dim_(dim), dtype_(dtype) {
  switch (dtype_) {
    case KvDtype::kFp16:
      fp_.assign(rows_ * dim_, 0.0f);
      break;
    case KvDtype::kInt8:
      row_bytes_ = dim_;
      codes_.assign(rows_ * row_bytes_, 0);
      params_.assign(rows_, {});
      break;
    case KvDtype::kInt4:
      row_bytes_ = (dim_ + 1) / 2;
      codes_.assign(rows_ * row_bytes_, 0);
      params_.assign(rows_, {});
      break;
  }
  if (dtype_ == KvDtype::kFp16) params_.assign(rows_, {});
}

void QuantizedRows::store_row(std::size_t r, const float* row) noexcept {
  assert(r < rows_);
  switch (dtype_) {
    case KvDtype::kFp16:
      std::memcpy(fp_.data() + r * dim_, row, dim_ * sizeof(float));
      break;
    case KvDtype::kInt8: {
      const QuantParams p = compute_quant_params(row, dim_, 8);
      params_[r] = p;
      quantize_row_int8(row, dim_, p, codes_.data() + r * row_bytes_);
      break;
    }
    case KvDtype::kInt4: {
      const QuantParams p = compute_quant_params(row, dim_, 4);
      params_[r] = p;
      quantize_row_int4(row, dim_, p, codes_.data() + r * row_bytes_);
      break;
    }
  }
}

void QuantizedRows::load_row(std::size_t r, float* out) const noexcept {
  assert(r < rows_);
  switch (dtype_) {
    case KvDtype::kFp16:
      std::memcpy(out, fp_.data() + r * dim_, dim_ * sizeof(float));
      break;
    case KvDtype::kInt8:
      dequantize_row_int8(codes_.data() + r * row_bytes_, dim_, params_[r],
                          out);
      break;
    case KvDtype::kInt4:
      dequantize_row_int4(codes_.data() + r * row_bytes_, dim_, params_[r],
                          out);
      break;
  }
}

void QuantizedRows::fold_row_minmax(std::size_t r, float* mn, float* mx,
                                    bool first) const noexcept {
  assert(r < rows_);
  const auto fold = [&](std::size_t i, float x) {
    if (first) {
      mn[i] = x;
      mx[i] = x;
    } else {
      mn[i] = std::min(mn[i], x);
      mx[i] = std::max(mx[i], x);
    }
  };
  switch (dtype_) {
    case KvDtype::kFp16: {
      const float* row = fp_.data() + r * dim_;
      for (std::size_t i = 0; i < dim_; ++i) fold(i, row[i]);
      break;
    }
    case KvDtype::kInt8: {
      const std::uint8_t* codes = codes_.data() + r * row_bytes_;
      const QuantParams p = params_[r];
      for (std::size_t i = 0; i < dim_; ++i) fold(i, decode(codes[i], p));
      break;
    }
    case KvDtype::kInt4: {
      const std::uint8_t* codes = codes_.data() + r * row_bytes_;
      const QuantParams p = params_[r];
      const std::size_t pairs = dim_ / 2;
      for (std::size_t i = 0; i < pairs; ++i) {
        fold(2 * i, decode(codes[i] & 0x0F, p));
        fold(2 * i + 1, decode(codes[i] >> 4, p));
      }
      if (dim_ & 1) fold(dim_ - 1, decode(codes[pairs] & 0x0F, p));
      break;
    }
  }
}

void QuantizedRows::copy_rows_from(const QuantizedRows& src,
                                   std::size_t n) noexcept {
  assert(n <= rows_ && n <= src.rows_);
  assert(dim_ == src.dim_ && dtype_ == src.dtype_);
  if (n == 0) return;
  switch (dtype_) {
    case KvDtype::kFp16:
      std::memcpy(fp_.data(), src.fp_.data(), n * dim_ * sizeof(float));
      break;
    case KvDtype::kInt8:
    case KvDtype::kInt4:
      std::memcpy(codes_.data(), src.codes_.data(), n * row_bytes_);
      break;
  }
  std::memcpy(params_.data(), src.params_.data(), n * sizeof(QuantParams));
}

std::size_t QuantizedRows::serialized_bytes() const noexcept {
  return codes_.size() + fp_.size() * sizeof(float) +
         params_.size() * sizeof(QuantParams);
}

void QuantizedRows::serialize(std::uint8_t* out) const noexcept {
  if (!codes_.empty()) {
    std::memcpy(out, codes_.data(), codes_.size());
    out += codes_.size();
  }
  if (!fp_.empty()) {
    std::memcpy(out, fp_.data(), fp_.size() * sizeof(float));
    out += fp_.size() * sizeof(float);
  }
  if (!params_.empty()) {
    std::memcpy(out, params_.data(), params_.size() * sizeof(QuantParams));
  }
}

void QuantizedRows::deserialize(const std::uint8_t* in) noexcept {
  if (!codes_.empty()) {
    std::memcpy(codes_.data(), in, codes_.size());
    in += codes_.size();
  }
  if (!fp_.empty()) {
    std::memcpy(fp_.data(), in, fp_.size() * sizeof(float));
    in += fp_.size() * sizeof(float);
  }
  if (!params_.empty()) {
    std::memcpy(params_.data(), in, params_.size() * sizeof(QuantParams));
  }
}

const float* QuantizedRows::fp_row(std::size_t r) const noexcept {
  assert(dtype_ == KvDtype::kFp16 && r < rows_);
  return fp_.data() + r * dim_;
}

void QuantizedRows::unpack_codes(std::size_t n, float* out) const noexcept {
  assert(dtype_ != KvDtype::kFp16 && n <= rows_);
  const std::uint8_t* codes = codes_.data();
  if (dtype_ == KvDtype::kInt8) {
    // int8 rows are dim bytes each, back to back: one flat conversion.
    for (std::size_t i = 0; i < n * dim_; ++i) {
      out[i] = static_cast<float>(codes[i]);
    }
  } else if (dim_ % 2 == 0) {
    // Even-dim int4 rows carry no padding nibble: one flat unpack.
    unpack_int4(codes, n * dim_, out);
  } else {
    for (std::size_t r = 0; r < n; ++r) {
      unpack_int4(codes + r * row_bytes_, dim_, out + r * dim_);
    }
  }
}

double QuantizedRows::device_bytes() const noexcept {
  // Payload plus per-row scale/zero (2 fp16 values) for quantized dtypes.
  const double payload =
      static_cast<double>(rows_) * dim_ * bytes_per_element(dtype_);
  const double meta = (dtype_ == KvDtype::kFp16)
                          ? 0.0
                          : static_cast<double>(rows_) * 4.0;
  return payload + meta;
}

}  // namespace lserve::num
