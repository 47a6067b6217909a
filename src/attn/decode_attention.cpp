#include "attn/decode_attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace lserve::attn {
namespace {

// Width of the fixed lane loops below. Each lane is an independent partial
// sum, so GCC -O3 vectorizes them at the baseline ISA without reassociating
// any float sum (no -ffast-math); lanes combine in one fixed order.
constexpr std::size_t kLanes = 8;

float lane_dot(const float* a, const float* b, std::size_t n) noexcept {
  float acc[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  for (std::size_t l = 0; i < n; ++i, ++l) acc[l] += a[i] * b[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// acc[i] += sum over t of w[t] * rows[t * n + i], t ascending per channel.
// Channels go kLanes at a time so a lane block stays in registers across
// the token loop.
void accumulate_rows(const float* w, const float* rows, std::size_t count,
                     std::size_t n, float* acc) noexcept {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    float lanes[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) lanes[l] = acc[i + l];
    for (std::size_t t = 0; t < count; ++t) {
      const float* row = rows + t * n + i;
      for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += w[t] * row[l];
    }
    for (std::size_t l = 0; l < kLanes; ++l) acc[i + l] = lanes[l];
  }
  for (; i < n; ++i) {
    float a = acc[i];
    for (std::size_t t = 0; t < count; ++t) a += w[t] * rows[t * n + i];
    acc[i] = a;
  }
}

}  // namespace

void sparse_paged_attention(const kv::PageAllocator& alloc,
                            std::span<const PageSpan> spans,
                            std::span<const std::size_t> row_end,
                            num::ConstMatView q, float scale,
                            num::MatView out, float* lse_out,
                            DecodeWorkStats* stats) {
  const std::size_t d = q.cols;
  const std::size_t rows = q.rows;
  assert(d == alloc.config().head_dim);
  assert(out.rows == rows && out.cols == d && row_end.size() == rows);
  const std::size_t page_size = alloc.config().page_size;
  const bool quantized = alloc.config().dtype != num::KvDtype::kFp16;
  const std::size_t last_end =
      rows == 0 ? 0 : *std::max_element(row_end.begin(), row_end.end());

  // Per-row running state: max, normalizer, zero-point bias and the
  // un-normalized V accumulation in code space.
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::vector<float> q_sum(rows);
  std::vector<float> row_max(rows, kNegInf);
  std::vector<float> row_norm(rows, 0.0f);
  std::vector<float> row_bias(rows, 0.0f);
  std::vector<float> acc(rows * d, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* qr = q.row(r);
    float s = 0.0f;
    for (std::size_t i = 0; i < d; ++i) s += qr[i];
    q_sum[r] = s;
  }

  // Per-page scratch, shared by the rows: unpacked codes (quantized pools
  // only) and one row's scores / V weights.
  std::vector<float> k_codes(quantized ? page_size * d : 0);
  std::vector<float> v_codes(quantized ? page_size * d : 0);
  std::vector<float> score(page_size), weight(page_size);

  // Caps a span's slot end `hi` at a row's causal end, in absolute tokens.
  const auto clip = [](std::size_t hi, std::size_t end, std::size_t base) {
    return std::min(hi, end > base ? end - base : 0);
  };
  for (const PageSpan& entry : spans) {
    const std::size_t base =
        static_cast<std::size_t>(entry.block) * page_size;
    const std::size_t lo = entry.begin;
    std::size_t hi = clip(entry.end, last_end, base);
    if (hi <= lo) continue;
    const kv::PagePin pin = alloc.pin(entry.page);
    const kv::Page& page = pin.page();
    // For streaming-head ring pages the page's own fill count is
    // authoritative.
    hi = std::min(hi, page.size());
    if (hi <= lo) continue;

    const num::QuantizedRows& keys = page.keys();
    const num::QuantizedRows& values = page.values();
    const float* k_rows = nullptr;
    const float* v_rows = nullptr;
    if (quantized) {
      keys.unpack_codes(hi, k_codes.data());
      values.unpack_codes(hi, v_codes.data());
      k_rows = k_codes.data();
      v_rows = v_codes.data();
    } else {
      k_rows = keys.fp_row(0);
      v_rows = values.fp_row(0);
    }
    // fp16-modelled rows carry (scale 1, zero 0), which makes the
    // code-space terms below exact no-ops.
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t end = clip(hi, row_end[r], base);
      if (end <= lo) continue;
      if (stats != nullptr) {
        ++stats->pages_visited;
        stats->tokens_visited += end - lo;
      }
      // q·k = s·(q·c − z·Σq) for k = (c − z)·s.
      const float* qr = q.row(r);
      float page_max = kNegInf;
      for (std::size_t t = lo; t < end; ++t) {
        const num::QuantParams p = keys.params(t);
        const float dot = lane_dot(qr, k_rows + t * d, d);
        score[t] = scale * p.scale * (dot - p.zero_point * q_sum[r]);
        page_max = std::max(page_max, score[t]);
      }
      // One rescale per span: move the running max to the span max.
      const float new_max = std::max(row_max[r], page_max);
      const float c = std::exp(row_max[r] - new_max);
      float* acc_r = acc.data() + r * d;
      row_norm[r] *= c;
      row_bias[r] *= c;
      for (std::size_t i = 0; i < d; ++i) acc_r[i] *= c;
      row_max[r] = new_max;
      // V = (c − z)·s: weight the codes by p·s and carry Σ p·s·z as the
      // row's bias, subtracted once at the end.
      float norm = row_norm[r];
      float bias = row_bias[r];
      for (std::size_t t = lo; t < end; ++t) {
        const num::QuantParams vp = values.params(t);
        const float p = std::exp(score[t] - new_max);
        norm += p;
        weight[t] = p * vp.scale;
        bias += weight[t] * vp.zero_point;
      }
      row_norm[r] = norm;
      row_bias[r] = bias;
      accumulate_rows(weight.data() + lo, v_rows + lo * d, end - lo, d,
                      acc_r);
    }
  }

  for (std::size_t r = 0; r < rows; ++r) {
    float* o = out.row(r);
    const float* acc_r = acc.data() + r * d;
    if (row_norm[r] > 0.0f) {
      const float inv = 1.0f / row_norm[r];
      for (std::size_t i = 0; i < d; ++i) {
        o[i] = (acc_r[i] - row_bias[r]) * inv;
      }
    } else {
      std::fill(o, o + d, 0.0f);
    }
    if (lse_out != nullptr) {
      lse_out[r] = row_norm[r] > 0.0f ? row_max[r] + std::log(row_norm[r])
                                      : kNegInf;
    }
  }
}

void sparse_paged_decode(const kv::PageAllocator& alloc,
                         const kv::SelectedPageTable& table,
                         std::size_t seq_tokens, num::ConstMatView q,
                         float scale, num::MatView out, float* lse_out,
                         DecodeWorkStats* stats) {
  const auto page_size =
      static_cast<std::uint32_t>(alloc.config().page_size);
  std::vector<PageSpan> spans;
  spans.reserve(table.size());
  for (const kv::SelectedPage& e : table) {
    spans.push_back({e.page, e.block, 0, page_size});
  }
  const std::vector<std::size_t> row_end(q.rows, seq_tokens);
  sparse_paged_attention(alloc, spans, row_end, q, scale, out, lse_out,
                         stats);
}

}  // namespace lserve::attn
