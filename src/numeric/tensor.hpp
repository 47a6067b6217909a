// Minimal row-major tensor types used throughout the library.
//
// The serving stack only needs 2-D (tokens x dim) and 3-D
// (tokens x heads x dim) views over contiguous float storage, so Tensor is a
// thin owning wrapper and MatView / ConstMatView are non-owning strided
// views. This deliberately mirrors how GPU kernels see memory: flat buffers
// plus shape metadata, no iterator machinery in the hot path.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace lserve::num {

/// Non-owning mutable view of a row-major matrix with a row stride.
///
/// `stride` is the distance in floats between the starts of consecutive
/// rows; `cols <= stride` so a view can select a column slice of a wider
/// buffer (e.g. one head out of an interleaved [token][head*dim] layout).
struct MatView {
  float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  float* row(std::size_t r) noexcept {
    assert(r < rows);
    return data + r * stride;
  }
  const float* row(std::size_t r) const noexcept {
    assert(r < rows);
    return data + r * stride;
  }
  float& at(std::size_t r, std::size_t c) noexcept {
    assert(c < cols);
    return row(r)[c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    assert(c < cols);
    return row(r)[c];
  }
  /// Sub-view of rows [r0, r0+n).
  MatView rows_slice(std::size_t r0, std::size_t n) const noexcept {
    assert(r0 + n <= rows);
    return {data + r0 * stride, n, cols, stride};
  }
  /// Sub-view of columns [c0, c0+n) (same rows).
  MatView cols_slice(std::size_t c0, std::size_t n) const noexcept {
    assert(c0 + n <= cols);
    return {data + c0, rows, n, stride};
  }
};

/// Non-owning read-only matrix view; implicitly constructible from MatView.
struct ConstMatView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  ConstMatView() = default;
  ConstMatView(const float* d, std::size_t r, std::size_t c,
               std::size_t s) noexcept
      : data(d), rows(r), cols(c), stride(s) {}
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like T* -> const T*
  ConstMatView(const MatView& m) noexcept
      : data(m.data), rows(m.rows), cols(m.cols), stride(m.stride) {}

  const float* row(std::size_t r) const noexcept {
    assert(r < rows);
    return data + r * stride;
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    assert(c < cols);
    return row(r)[c];
  }
  ConstMatView rows_slice(std::size_t r0, std::size_t n) const noexcept {
    assert(r0 + n <= rows);
    return {data + r0 * stride, n, cols, stride};
  }
  ConstMatView cols_slice(std::size_t c0, std::size_t n) const noexcept {
    assert(c0 + n <= cols);
    return {data + c0, rows, n, stride};
  }
};

/// Owning contiguous row-major 2-D tensor of floats.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  float* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  float& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  MatView view() noexcept { return {data_.data(), rows_, cols_, cols_}; }
  ConstMatView view() const noexcept {
    return {data_.data(), rows_, cols_, cols_};
  }
  std::span<float> flat() noexcept { return data_; }
  std::span<const float> flat() const noexcept { return data_; }

  void fill(float v) noexcept {
    for (auto& x : data_) x = v;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace lserve::num
