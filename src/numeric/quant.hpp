// Per-token asymmetric KV-cache quantization (QServe-style KV4/KV8).
//
// Each token's D-dimensional key (or value) row is quantized independently:
//   q[i] = clamp(round(x[i] / scale) + zero_point, 0, qmax)
// with the (scale, zero_point) pair stored next to the token features inside
// the KV page, exactly as LServe/QServe lay pages out (Fig 5: "Scales &
// Zeros" trail the token features). INT4 codes are packed two per byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lserve::num {

/// KV storage precision.
enum class KvDtype : std::uint8_t {
  kFp16 = 0,  // modelled as fp32 on CPU; 2 bytes/elt in the cost model
  kInt8 = 1,
  kInt4 = 2,
};

/// Bytes of payload per element for a dtype (cost-model view; INT4 = 0.5).
double bytes_per_element(KvDtype dtype) noexcept;

/// Human-readable dtype name ("fp16" / "int8" / "int4").
const char* dtype_name(KvDtype dtype) noexcept;

/// Quantization parameters for one token row.
struct QuantParams {
  float scale = 1.0f;
  float zero_point = 0.0f;  // stored in code space: q = x/scale + zero_point
};

/// Computes asymmetric per-row parameters for `bits`-bit quantization.
QuantParams compute_quant_params(const float* row, std::size_t n,
                                 int bits) noexcept;

/// Quantizes a row to 8-bit codes using `p`.
void quantize_row_int8(const float* row, std::size_t n, QuantParams p,
                       std::uint8_t* out) noexcept;

/// Dequantizes 8-bit codes back to float.
void dequantize_row_int8(const std::uint8_t* codes, std::size_t n,
                         QuantParams p, float* out) noexcept;

/// Quantizes a row to packed 4-bit codes (two per byte, low nibble first).
/// `out` must hold (n+1)/2 bytes.
void quantize_row_int4(const float* row, std::size_t n, QuantParams p,
                       std::uint8_t* out) noexcept;

/// Dequantizes packed 4-bit codes back to float.
void dequantize_row_int4(const std::uint8_t* codes, std::size_t n,
                         QuantParams p, float* out) noexcept;

/// A contiguous buffer of `rows` quantized token rows with per-row params.
/// This is the in-page storage format used by kv::Page.
class QuantizedRows {
 public:
  QuantizedRows() = default;
  QuantizedRows(std::size_t rows, std::size_t dim, KvDtype dtype);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dim() const noexcept { return dim_; }
  KvDtype dtype() const noexcept { return dtype_; }

  /// Quantizes (or copies, for kFp16) one row into slot r.
  void store_row(std::size_t r, const float* row) noexcept;

  /// Dequantizes slot r into `out` (length dim).
  void load_row(std::size_t r, float* out) const noexcept;

  /// Channel-wise min/max fold of row r straight from the stored codes and
  /// per-row (scale, zero_point) — no dequantized copy of the row is
  /// materialized. Each channel is decoded with the same expression
  /// load_row uses, so the folded values are bit-identical to
  /// dequantize-then-fold (pinned by PageTest.QuantDerivedKStats).
  /// `first` seeds mn/mx from the row instead of folding into them.
  void fold_row_minmax(std::size_t r, float* mn, float* mx,
                       bool first) const noexcept;

  /// Copies the first `n` rows of `src` (same geometry and dtype) verbatim
  /// — quantized codes and per-row params, no dequant/requant round trip —
  /// so the copy is bit-identical to the source. Prefix-cache COW path.
  void copy_rows_from(const QuantizedRows& src, std::size_t n) noexcept;

  /// Bytes serialize() writes: the raw payload (codes or fp) plus the
  /// per-row params. Fixed for a given geometry/dtype.
  std::size_t serialized_bytes() const noexcept;
  /// Writes payload + per-row params verbatim (no dequant/requant round
  /// trip), so deserialize() restores the buffer bit-identically. The
  /// cold-tier demote/promote path.
  void serialize(std::uint8_t* out) const noexcept;
  /// Restores a buffer of identical geometry/dtype from serialize() output.
  void deserialize(const std::uint8_t* in) noexcept;

  /// Direct fp32 access when dtype == kFp16 (hot-path shortcut). Rows are
  /// contiguous: fp_row(r + 1) == fp_row(r) + dim.
  const float* fp_row(std::size_t r) const noexcept;

  /// Writes the integer codes of rows [0, n) as floats into `out`
  /// (n x dim, row-major, natural channel order; int4 nibbles unpacked)
  /// WITHOUT applying the per-row (scale, zero_point):
  /// x = (code - zero_point) * scale is left to the caller, so a kernel can
  /// fold the pair in after its dot products. int8/int4 only.
  void unpack_codes(std::size_t n, float* out) const noexcept;

  QuantParams params(std::size_t r) const noexcept { return params_[r]; }

  /// Payload bytes this buffer would occupy on a real device.
  double device_bytes() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  KvDtype dtype_ = KvDtype::kFp16;
  std::size_t row_bytes_ = 0;           // packed bytes per row (int paths)
  std::vector<std::uint8_t> codes_;     // int8/int4 payload
  std::vector<float> fp_;               // fp16-modelled payload
  std::vector<QuantParams> params_;
};

}  // namespace lserve::num
