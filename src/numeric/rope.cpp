#include "numeric/rope.hpp"

#include <cassert>
#include <cmath>

namespace lserve::num {

RopeTable::RopeTable(std::size_t head_dim, float base) {
  assert(head_dim % 2 == 0);
  const std::size_t half = head_dim / 2;
  inv_freq_.resize(half);
  for (std::size_t i = 0; i < half; ++i) {
    inv_freq_[i] = std::pow(base, -2.0f * static_cast<float>(i) /
                                      static_cast<float>(head_dim));
  }
}

void RopeTable::apply(float* row, std::size_t pos) const noexcept {
  const std::size_t half = inv_freq_.size();
  const float p = static_cast<float>(pos);
  for (std::size_t i = 0; i < half; ++i) {
    const float angle = p * inv_freq_[i];
    const float c = std::cos(angle);
    const float s = std::sin(angle);
    const float x = row[2 * i];
    const float y = row[2 * i + 1];
    row[2 * i] = x * c - y * s;
    row[2 * i + 1] = x * s + y * c;
  }
}

}  // namespace lserve::num
