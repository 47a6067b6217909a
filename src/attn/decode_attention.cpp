#include "attn/decode_attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "numeric/simd.hpp"

namespace lserve::attn {
namespace {

using num::f32x4;
using num::i32x4;
using num::load4;
using num::splat;
using num::store4;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// A score block is 4 slots of a page, one lane each; blocks start at page
// slots divisible by 4, so a slot's lane depends only on its position.
constexpr std::size_t kBlock = 4;

std::size_t round_up4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }

// Lanes of the block starting at slot b that fall in [lo, end).
i32x4 slot_mask(std::size_t b, std::size_t lo, std::size_t end) {
  const i32x4 slot = splat(static_cast<std::int32_t>(b)) + i32x4{0, 1, 2, 3};
  return (slot >= splat(static_cast<std::int32_t>(lo))) &
         (slot < splat(static_cast<std::int32_t>(end)));
}

f32x4 masked(f32x4 x, i32x4 mask) { return (f32x4)((i32x4)x & mask); }

// ((l0 + l1) + (l2 + l3)): the one order lanes of a sum combine in.
float lane_sum(f32x4 v) { return (v[0] + v[1]) + (v[2] + v[3]); }

// Lane j of the result is (a_j[0] + a_j[2]) + (a_j[1] + a_j[3]): a
// transpose-add of four 4-lane partial sums.
f32x4 transpose_add(f32x4 a0, f32x4 a1, f32x4 a2, f32x4 a3) {
  const f32x4 s01 = f32x4{a0[0], a1[0], a0[1], a1[1]} +
                    f32x4{a0[2], a1[2], a0[3], a1[3]};
  const f32x4 s23 = f32x4{a2[0], a3[0], a2[1], a3[1]} +
                    f32x4{a2[2], a3[2], a2[3], a3[3]};
  return f32x4{s01[0], s01[1], s23[0], s23[1]} +
         f32x4{s01[2], s01[3], s23[2], s23[3]};
}

// The query-row dots of one score block. Lane l of acc[r][j] sums channels
// c ≡ l (mod 4) of row r against slot j in ascending order, and the dot is
// (a0 + a2) + (a1 + a3), so a (row, slot) dot never depends on which rows
// share the pass. A last partial chunk is loaded with +0 lanes.
template <std::size_t R>
void score_block(const float* const* q, const float* const* k, std::size_t d,
                 f32x4* dots) {
  f32x4 acc[R][kBlock];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < kBlock; ++j) acc[r][j] = f32x4{};
  }
  const auto chunk = [&](std::size_t c, auto load) {
    const f32x4 k0 = load(k[0] + c), k1 = load(k[1] + c),
                k2 = load(k[2] + c), k3 = load(k[3] + c);
    for (std::size_t r = 0; r < R; ++r) {
      const f32x4 qv = load(q[r] + c);
      acc[r][0] += qv * k0;
      acc[r][1] += qv * k1;
      acc[r][2] += qv * k2;
      acc[r][3] += qv * k3;
    }
  };
  std::size_t c = 0;
  for (; c + 4 <= d; c += 4) chunk(c, [](const float* p) { return load4(p); });
  if (c < d) {
    chunk(c, [n = d - c](const float* p) { return num::load_partial(p, n); });
  }
  for (std::size_t r = 0; r < R; ++r) {
    dots[r] = transpose_add(acc[r][0], acc[r][1], acc[r][2], acc[r][3]);
  }
}

// One span of one page, as every row of the call sees it: slots [lo, hi),
// K/V rows (codes, or fp values read in place) and per-slot parameters
// indexed by slot. Slots at or past hi read the zero row and zero params.
struct PageBlock {
  const float* k_rows;
  const float* v_rows;
  const float* zero_row;
  const float* k_scale;  // K scale x softmax scale
  const float* k_zero;
  const float* v_scale;
  const float* v_zero;
  std::size_t lo, hi, d;
};

// One row's running state: max, normalizer, zero-point bias and the
// un-normalized V accumulation in code space (4-lane padded).
struct RowState {
  const float* q;
  float q_sum;
  float max;
  float norm;
  float bias;
  float* acc;
};

// V pass over channels [ch, ch + 4C) for R rows: acc = acc·c, then
// acc += w[t]·V[t] for t ascending (w holds each slot's weight splatted).
// The rows share each V row over [lo, shared) and then fold their own
// tails, so every channel of a row sums in slot order whatever rows share
// the pass.
template <std::size_t R, std::size_t C, typename Load>
void v_pass(const PageBlock& pg, RowState* const* rs, f32x4* const* w,
            const float* rescale, const std::size_t* end, std::size_t shared,
            std::size_t ch, Load load) {
  f32x4 a[R][C];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < C; ++i) {
      a[r][i] = load4(rs[r]->acc + ch + 4 * i) * splat(rescale[r]);
    }
  }
  for (std::size_t t = pg.lo; t < shared; ++t) {
    const float* v = pg.v_rows + t * pg.d + ch;
    f32x4 vv[C];
    for (std::size_t i = 0; i < C; ++i) vv[i] = load(v + 4 * i);
    for (std::size_t r = 0; r < R; ++r) {
      const f32x4 wr = w[r][t];
      for (std::size_t i = 0; i < C; ++i) a[r][i] += wr * vv[i];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t t = shared; t < end[r]; ++t) {
      const float* v = pg.v_rows + t * pg.d + ch;
      const f32x4 wr = w[r][t];
      for (std::size_t i = 0; i < C; ++i) a[r][i] += wr * load(v + 4 * i);
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < C; ++i) {
      store4(rs[r]->acc + ch + 4 * i, a[r][i]);
    }
  }
}

// Folds slots [lo, end[r]) of one span into R rows (a 2-row tile, or a lone
// row). Each row's arithmetic is the same whatever rows share its tile:
// only a block holding lo or end[r] is masked, and masked lanes add +0.
template <std::size_t R>
void fold_tile(const PageBlock& pg, RowState* const* rs,
               const std::size_t* end, float* const* score,
               f32x4* const* w) {
  const std::size_t first = pg.lo & ~(kBlock - 1);
  const std::size_t top = *std::max_element(end, end + R);
  const float* q[R];
  for (std::size_t r = 0; r < R; ++r) q[r] = rs[r]->q;
  const auto edge = [&](std::size_t b, std::size_t e) {
    return b < pg.lo || b + kBlock > e;
  };

  // Scores s·(q·c − z·Σq) for k = (c − z)·s, and each row's span max.
  f32x4 row_max[R];
  for (std::size_t r = 0; r < R; ++r) row_max[r] = splat(kNegInf);
  for (std::size_t b = first; b < top; b += kBlock) {
    const float* k[kBlock];
    for (std::size_t j = 0; j < kBlock; ++j) {
      k[j] = b + j < pg.hi ? pg.k_rows + (b + j) * pg.d : pg.zero_row;
    }
    f32x4 dots[R];
    score_block<R>(q, k, pg.d, dots);
    const f32x4 ks = load4(pg.k_scale + b);
    const f32x4 kz = load4(pg.k_zero + b);
    for (std::size_t r = 0; r < R; ++r) {
      f32x4 s = ks * (dots[r] - kz * splat(rs[r]->q_sum));
      store4(score[r] + b, s);
      if (edge(b, end[r])) {
        s = num::select(slot_mask(b, pg.lo, end[r]), s, splat(kNegInf));
      }
      row_max[r] = num::max4(row_max[r], s);
    }
  }

  // One rescale per span: move the running max to the span max. V =
  // (c − z)·s: weight the codes by p·s and carry Σ p·s·z as the row's
  // bias, subtracted once at the end.
  float rescale[R];
  for (std::size_t r = 0; r < R; ++r) {
    RowState& st = *rs[r];
    const f32x4 m = row_max[r];
    const float new_max =
        std::max(st.max, std::max(std::max(m[0], m[1]), std::max(m[2], m[3])));
    rescale[r] = std::exp(st.max - new_max);
    st.max = new_max;
    f32x4 norm = {}, bias = {};
    for (std::size_t b = first; b < end[r]; b += kBlock) {
      f32x4 p = num::exp_lanes(load4(score[r] + b) - splat(new_max));
      if (edge(b, end[r])) p = masked(p, slot_mask(b, pg.lo, end[r]));
      const f32x4 wt = p * load4(pg.v_scale + b);
      norm += p;
      bias += wt * load4(pg.v_zero + b);
      w[r][b] = splat(wt[0]);
      w[r][b + 1] = splat(wt[1]);
      w[r][b + 2] = splat(wt[2]);
      w[r][b + 3] = splat(wt[3]);
    }
    st.norm = st.norm * rescale[r] + lane_sum(norm);
    st.bias = st.bias * rescale[r] + lane_sum(bias);
  }

  // V: 8 accumulators per pass (R rows x 8/R vectors), then 4-channel
  // passes; a last partial chunk loads +0 lanes into the padded acc.
  const std::size_t shared = *std::min_element(end, end + R);
  constexpr std::size_t kWide = 8 / R;
  const auto full = [](const float* p) { return load4(p); };
  std::size_t ch = 0;
  for (; ch + 4 * kWide <= pg.d; ch += 4 * kWide) {
    v_pass<R, kWide>(pg, rs, w, rescale, end, shared, ch, full);
  }
  for (; ch + 4 <= pg.d; ch += 4) {
    v_pass<R, 1>(pg, rs, w, rescale, end, shared, ch, full);
  }
  if (ch < pg.d) {
    v_pass<R, 1>(pg, rs, w, rescale, end, shared, ch,
                 [n = pg.d - ch](const float* p) {
                   return num::load_partial(p, n);
                 });
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

  const std::size_t d4 = round_up4(d);
  std::vector<float> acc(rows * d4, 0.0f);
  std::vector<RowState> state(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* qr = q.row(r);
    float s = 0.0f;
    for (std::size_t i = 0; i < d; ++i) s += qr[i];
    state[r] = {qr, s, kNegInf, 0.0f, 0.0f, acc.data() + r * d4};
  }

  // Per-page scratch, shared by the rows: unpacked codes (quantized pools
  // only), per-slot parameters, and a tile's scores / V weights.
  const std::size_t slots = round_up4(page_size);
  std::vector<float> k_codes(quantized ? page_size * d : 0);
  std::vector<float> v_codes(quantized ? page_size * d : 0);
  std::vector<float> zero_row(d, 0.0f);
  std::vector<float> params(4 * slots, 0.0f);
  std::vector<float> scores(2 * slots);
  std::vector<f32x4> weights(2 * slots);
  float* const score[2] = {scores.data(), scores.data() + slots};
  f32x4* const weight[2] = {weights.data(), weights.data() + slots};
  // The rows that see the current span, and their span ends.
  std::vector<RowState*> active;
  std::vector<std::size_t> active_end;
  active.reserve(rows);
  active_end.reserve(rows);

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
    PageBlock pg{nullptr, nullptr, zero_row.data(), params.data(),
                 params.data() + slots, params.data() + 2 * slots,
                 params.data() + 3 * slots, lo, hi, d};
    if (quantized) {
      keys.unpack_codes(hi, k_codes.data());
      values.unpack_codes(hi, v_codes.data());
      pg.k_rows = k_codes.data();
      pg.v_rows = v_codes.data();
    } else {
      pg.k_rows = keys.fp_row(0);
      pg.v_rows = values.fp_row(0);
    }
    // fp16-modelled rows carry (scale 1, zero 0), which makes the
    // code-space terms exact no-ops. Slots past hi keep zero params.
    for (std::size_t t = lo & ~(kBlock - 1); t < hi; ++t) {
      const num::QuantParams kp = keys.params(t);
      const num::QuantParams vp = values.params(t);
      params[t] = scale * kp.scale;
      params[slots + t] = kp.zero_point;
      params[2 * slots + t] = vp.scale;
      params[3 * slots + t] = vp.zero_point;
    }
    for (std::size_t t = hi; t < round_up4(hi); ++t) {
      for (std::size_t i = 0; i < 4; ++i) params[i * slots + t] = 0.0f;
    }

    active.clear();
    active_end.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t end = clip(hi, row_end[r], base);
      if (end <= lo) continue;
      active.push_back(&state[r]);
      active_end.push_back(end);
      if (stats != nullptr) {
        ++stats->pages_visited;
        stats->tokens_visited += end - lo;
      }
    }
    // Rows go in 2-row tiles; an odd last row folds alone.
    std::size_t i = 0;
    for (; i + 2 <= active.size(); i += 2) {
      fold_tile<2>(pg, &active[i], &active_end[i], score, weight);
    }
    if (i < active.size()) {
      fold_tile<1>(pg, &active[i], &active_end[i], score, weight);
    }
  }

  for (std::size_t r = 0; r < rows; ++r) {
    const RowState& st = state[r];
    float* o = out.row(r);
    if (st.norm > 0.0f) {
      const float inv = 1.0f / st.norm;
      for (std::size_t i = 0; i < d; ++i) o[i] = (st.acc[i] - st.bias) * inv;
    } else {
      std::fill(o, o + d, 0.0f);
    }
    if (lse_out != nullptr) {
      lse_out[r] = st.norm > 0.0f ? st.max + std::log(st.norm) : kNegInf;
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
