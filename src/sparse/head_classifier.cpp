#include "sparse/head_classifier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "attn/dense_attention.hpp"
#include "numeric/math.hpp"
#include "numeric/tensor.hpp"

namespace lserve::sparse {

float measure_head_gate(num::ConstMatView q, num::ConstMatView k,
                        num::ConstMatView v, std::size_t sink_tokens,
                        std::size_t local_tokens, float scale) {
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  num::Tensor dense_out(n, d);
  num::Tensor stream_out(n, d);
  attn::dense_prefill_reference(q, k, v, scale, dense_out.view());
  attn::streaming_prefill_reference(q, k, v, sink_tokens, local_tokens, scale,
                                    stream_out.view());
  // Relative error restricted to rows with history beyond the Λ mask;
  // early rows are identical by construction and would dilute the signal.
  double err_sq = 0.0;
  double ref_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < sink_tokens + local_tokens) continue;
    const float* a = dense_out.row(i);
    const float* b = stream_out.row(i);
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = static_cast<double>(a[c]) - b[c];
      err_sq += diff * diff;
      ref_sq += static_cast<double>(a[c]) * a[c];
    }
  }
  if (ref_sq < 1e-20) return 0.0;
  const double rel = std::sqrt(err_sq / ref_sq);
  // Squash to [0,1): monotone in the distortion, so quantile thresholding
  // is unaffected by the exact squashing function.
  return static_cast<float>(rel / (rel + 0.25));
}

float gate_threshold(std::span<const float> gates,
                     double streaming_fraction) {
  assert(!gates.empty());
  streaming_fraction = std::clamp(streaming_fraction, 0.0, 1.0);
  std::vector<float> sorted(gates.begin(), gates.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t cut = static_cast<std::size_t>(
      std::round(streaming_fraction * static_cast<double>(sorted.size())));
  if (cut == 0) return -1.0f;  // below every gate: no streaming heads
  return sorted[cut - 1];
}

std::vector<kv::HeadKind> classify_by_quantile(std::span<const float> gates,
                                               double streaming_fraction) {
  const float tau = gate_threshold(gates, streaming_fraction);
  const std::size_t target = static_cast<std::size_t>(std::round(
      std::clamp(streaming_fraction, 0.0, 1.0) *
      static_cast<double>(gates.size())));
  std::vector<kv::HeadKind> kinds(gates.size(), kv::HeadKind::kDense);
  // Ties at τ are broken by index so the streaming count is exact.
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < gates.size() && assigned < target; ++i) {
    if (gates[i] < tau) {
      kinds[i] = kv::HeadKind::kStreaming;
      ++assigned;
    }
  }
  for (std::size_t i = 0; i < gates.size() && assigned < target; ++i) {
    if (kinds[i] == kv::HeadKind::kDense && gates[i] == tau) {
      kinds[i] = kv::HeadKind::kStreaming;
      ++assigned;
    }
  }
  return kinds;
}

}  // namespace lserve::sparse
