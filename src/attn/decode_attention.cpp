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

void sparse_paged_decode(const kv::PageAllocator& alloc,
                         const kv::SelectedPageTable& table,
                         std::size_t seq_tokens, num::ConstMatView q,
                         float scale, num::MatView out, float* lse_out,
                         DecodeWorkStats* stats) {
  const std::size_t d = q.cols;
  const std::size_t rows = q.rows;
  assert(d == alloc.config().head_dim);
  assert(out.rows == rows && out.cols == d);
  const std::size_t page_size = alloc.config().page_size;
  const bool quantized = alloc.config().dtype != num::KvDtype::kFp16;

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

  // Per-page scratch, shared by the group: unpacked codes (quantized
  // pools only) and one row's scores / V weights.
  std::vector<float> k_codes(quantized ? page_size * d : 0);
  std::vector<float> v_codes(quantized ? page_size * d : 0);
  std::vector<float> score(page_size), weight(page_size);

  for (const kv::SelectedPage& entry : table) {
    const kv::PagePin pin = alloc.pin(entry.page);
    const kv::Page& page = pin.page();
    // Tokens live in this block: full pages hold page_size tokens, the
    // trailing block holds the remainder. For streaming-head ring pages the
    // page's own fill count is authoritative.
    const std::size_t begin =
        static_cast<std::size_t>(entry.block) * page_size;
    std::size_t count = seq_tokens > begin ? seq_tokens - begin : 0;
    if (count > page_size) count = page_size;
    if (count > page.size()) count = page.size();
    if (stats != nullptr) {
      stats->pages_visited += rows;
      stats->tokens_visited += rows * count;
    }
    if (count == 0) continue;

    const num::QuantizedRows& keys = page.keys();
    const num::QuantizedRows& values = page.values();
    const float* k_rows = nullptr;
    const float* v_rows = nullptr;
    if (quantized) {
      keys.unpack_codes(count, k_codes.data());
      values.unpack_codes(count, v_codes.data());
      k_rows = k_codes.data();
      v_rows = v_codes.data();
    } else {
      k_rows = keys.fp_row(0);
      v_rows = values.fp_row(0);
    }
    // fp16-modelled rows carry (scale 1, zero 0), which makes the
    // code-space terms below exact no-ops.
    for (std::size_t r = 0; r < rows; ++r) {
      // q·k = s·(q·c − z·Σq) for k = (c − z)·s.
      const float* qr = q.row(r);
      float page_max = kNegInf;
      for (std::size_t t = 0; t < count; ++t) {
        const num::QuantParams p = keys.params(t);
        const float dot = lane_dot(qr, k_rows + t * d, d);
        score[t] = scale * p.scale * (dot - p.zero_point * q_sum[r]);
        page_max = std::max(page_max, score[t]);
      }
      // One rescale per page: move the running max to the page max.
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
      for (std::size_t t = 0; t < count; ++t) {
        const num::QuantParams vp = values.params(t);
        const float p = std::exp(score[t] - new_max);
        norm += p;
        weight[t] = p * vp.scale;
        bias += weight[t] * vp.zero_point;
      }
      row_norm[r] = norm;
      row_bias[r] = bias;
      accumulate_rows(weight.data(), v_rows, count, d, acc_r);
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

}  // namespace lserve::attn
