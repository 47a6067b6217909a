// Tests for the unified sparse decode kernel (src/attn/decode_attention)
// and the fused per-layer dispatch (src/attn/fused_attention).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "attn/decode_attention.hpp"
#include "attn/dense_attention.hpp"
#include "attn/fused_attention.hpp"
#include "numeric/math.hpp"
#include "numeric/rng.hpp"

namespace lserve::attn {
namespace {

kv::PageConfig cfg(num::KvDtype dtype = num::KvDtype::kFp16) {
  kv::PageConfig c;
  c.page_size = 8;
  c.logical_page_size = 4;
  c.head_dim = 16;
  c.dtype = dtype;
  return c;
}

struct Fixture {
  kv::PageAllocator alloc;
  kv::HeadCache head;
  std::vector<std::vector<float>> keys, values;

  explicit Fixture(std::size_t n, num::KvDtype dtype = num::KvDtype::kFp16,
                   std::uint64_t seed = 5)
      : alloc(cfg(dtype), n / 8 + 2) {
    num::Rng rng(seed);
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<float> k(16), v(16);
      rng.fill_gaussian(k, 1.0f);
      rng.fill_gaussian(v, 1.0f);
      head.append(alloc, k.data(), v.data());
      keys.push_back(k);
      values.push_back(v);
    }
  }

  /// Naive softmax attention over an arbitrary token subset.
  std::vector<float> reference(const std::vector<float>& q,
                               const std::vector<std::size_t>& tokens,
                               float scale) const {
    std::vector<float> scores;
    for (std::size_t t : tokens) {
      scores.push_back(scale * num::dot(q.data(), keys[t].data(), 16));
    }
    num::softmax_inplace(scores.data(), scores.size());
    std::vector<float> out(16, 0.0f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      num::axpy(scores[i], values[tokens[i]].data(), out.data(), 16);
    }
    return out;
  }
};

/// The kernel as a one-row group (a single query head).
void decode_one(const kv::PageAllocator& alloc,
                const kv::SelectedPageTable& table, std::size_t seq_tokens,
                const float* q, std::size_t d, float scale, float* out,
                float* lse = nullptr, DecodeWorkStats* stats = nullptr) {
  sparse_paged_decode(alloc, table, seq_tokens, num::ConstMatView{q, 1, d, d},
                      scale, num::MatView{out, 1, d, d}, lse, stats);
}

TEST(SparseDecode, FullTableMatchesDensePagedDecode) {
  Fixture fix(45);
  num::Rng rng(9);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const float scale = 0.25f;

  std::vector<float> dense(16), sparse(16);
  float lse_dense = 0.0f, lse_sparse = 0.0f;
  dense_paged_decode(fix.alloc, fix.head, q.data(), 16, scale, dense.data(),
                     &lse_dense);
  const auto table = kv::full_page_table(fix.head.view(fix.alloc));
  decode_one(fix.alloc, table, fix.head.tokens(), q.data(), 16, scale,
             sparse.data(), &lse_sparse);
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_NEAR(dense[c], sparse[c], 1e-5f);
  }
  EXPECT_NEAR(lse_dense, lse_sparse, 1e-5f);
}

TEST(SparseDecode, FullTableMatchesNaiveReference) {
  Fixture fix(37);
  num::Rng rng(10);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const float scale = 0.25f;
  std::vector<std::size_t> all(37);
  for (std::size_t t = 0; t < 37; ++t) all[t] = t;
  const auto ref = fix.reference(q, all, scale);

  std::vector<float> out(16);
  decode_one(fix.alloc, kv::full_page_table(fix.head.view(fix.alloc)), 37,
             q.data(), 16, scale, out.data());
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

TEST(SparseDecode, PrunedTableAttendsOnlySelectedPages) {
  Fixture fix(32);  // 4 full pages
  num::Rng rng(11);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const float scale = 0.25f;

  const auto view = fix.head.view(fix.alloc);
  const kv::SelectedPageTable table{{view.pages[0], 0}, {view.pages[2], 2}};
  std::vector<std::size_t> tokens;
  for (std::size_t t = 0; t < 8; ++t) tokens.push_back(t);
  for (std::size_t t = 16; t < 24; ++t) tokens.push_back(t);
  const auto ref = fix.reference(q, tokens, scale);

  std::vector<float> out(16);
  DecodeWorkStats stats;
  decode_one(fix.alloc, table, 32, q.data(), 16, scale, out.data(), nullptr,
             &stats);
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
  EXPECT_EQ(stats.pages_visited, 2u);
  EXPECT_EQ(stats.tokens_visited, 16u);
}

TEST(SparseDecode, PartialTailBlockHandled) {
  Fixture fix(19);  // pages of 8: 8 + 8 + 3
  num::Rng rng(12);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  const auto view = fix.head.view(fix.alloc);
  const kv::SelectedPageTable table{{view.pages[2], 2}};
  std::vector<float> out(16);
  DecodeWorkStats stats;
  decode_one(fix.alloc, table, 19, q.data(), 16, 0.25f, out.data(), nullptr,
             &stats);
  EXPECT_EQ(stats.tokens_visited, 3u);
  const auto ref = fix.reference(q, {16, 17, 18}, 0.25f);
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(out[c], ref[c], 1e-4f);
}

TEST(SparseDecode, EmptyTableYieldsZeros) {
  Fixture fix(8);
  std::vector<float> q(16, 1.0f), out(16, 3.0f);
  float lse = 0.0f;
  decode_one(fix.alloc, {}, 8, q.data(), 16, 0.25f, out.data(), &lse);
  for (float x : out) EXPECT_EQ(x, 0.0f);
  EXPECT_TRUE(std::isinf(lse));
}

TEST(SparseDecode, QuantizedKvWithinErrorBound) {
  Fixture fp(64, num::KvDtype::kFp16, 21);
  Fixture i8(64, num::KvDtype::kInt8, 21);  // same seed -> same data
  num::Rng rng(13);
  std::vector<float> q(16);
  rng.fill_gaussian(q, 1.0f);
  std::vector<float> a(16), b(16);
  const auto ta = kv::full_page_table(fp.head.view(fp.alloc));
  const auto tb = kv::full_page_table(i8.head.view(i8.alloc));
  decode_one(fp.alloc, ta, 64, q.data(), 16, 0.25f, a.data());
  decode_one(i8.alloc, tb, 64, q.data(), 16, 0.25f, b.data());
  for (std::size_t c = 0; c < 16; ++c) EXPECT_NEAR(a[c], b[c], 0.05f);
}

// Fused decode: every head flavour goes through one kernel; a config with
// no sparsity must equal per-head dense decode exactly.
TEST(FusedDecode, AllDenseMatchesPerHeadDense) {
  const std::size_t layers = 1, kv_heads = 2, group = 2, d = 16;
  kv::PageAllocator dense_alloc(cfg(), 64);
  kv::PageAllocator stream_alloc(cfg(), 64);
  kv::TwoWayKvCache cache(layers, kv_heads,
                          {kv::HeadKind::kDense, kv::HeadKind::kDense},
                          {8, 16});
  num::Rng rng(31);
  for (std::size_t t = 0; t < 40; ++t) {
    for (std::size_t h = 0; h < kv_heads; ++h) {
      std::vector<float> k(d), v(d);
      rng.fill_gaussian(k, 1.0f);
      rng.fill_gaussian(v, 1.0f);
      cache.append(dense_alloc, stream_alloc, 0, h, k.data(), v.data());
    }
  }
  num::Tensor q(kv_heads * group, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();

  FusedDecodeConfig fc;
  fc.dynamic_dense = false;
  num::Tensor out(kv_heads * group, d);
  fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(), group,
                      nullptr, 0, fc, out.view());

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (std::size_t h = 0; h < kv_heads * group; ++h) {
    std::vector<float> ref(d);
    dense_paged_decode(dense_alloc, cache.dense_head(0, h / group), q.row(h),
                       d, scale, ref.data());
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(out.at(h, c), ref[c], 1e-5f);
    }
  }
}

TEST(FusedDecode, StreamingHeadUsesSinkLocalTable) {
  const std::size_t d = 16;
  kv::PageAllocator dense_alloc(cfg(), 64);
  kv::PageAllocator stream_alloc(cfg(), 64);
  kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kStreaming}, {8, 16});
  num::Rng rng(33);
  std::vector<std::vector<float>> keys, values;
  for (std::size_t t = 0; t < 64; ++t) {
    std::vector<float> k(d), v(d);
    rng.fill_gaussian(k, 1.0f);
    rng.fill_gaussian(v, 1.0f);
    cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
    keys.push_back(k);
    values.push_back(v);
  }
  num::Tensor q(1, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  FusedDecodeConfig fc;
  num::Tensor out(1, d);
  DecodeWorkStats stats;
  fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(), 1,
                      nullptr, 0, fc, out.view(), &stats);
  // Sink page (block 0: tokens 0..7) + local ring (>= 16 trailing tokens).
  EXPECT_LE(stats.tokens_visited, 8u + 24u);
  EXPECT_GE(stats.tokens_visited, 8u + 16u);

  // Reference over exactly the retained tokens.
  const auto table = cache.streaming_head(0, 0).index_table();
  std::vector<std::size_t> tokens;
  for (const auto& e : table) {
    const std::size_t begin = e.block * 8;
    const std::size_t count = std::min<std::size_t>(8, 64 - begin);
    for (std::size_t s = 0; s < count; ++s) tokens.push_back(begin + s);
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> scores;
  for (std::size_t t : tokens) {
    scores.push_back(scale * num::dot(q.row(0), keys[t].data(), d));
  }
  num::softmax_inplace(scores.data(), scores.size());
  std::vector<float> ref(d, 0.0f);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    num::axpy(scores[i], values[tokens[i]].data(), ref.data(), d);
  }
  for (std::size_t c = 0; c < d; ++c) {
    EXPECT_NEAR(out.at(0, c), ref[c], 1e-4f);
  }
}

TEST(FusedDecode, DynamicSelectionBoundsVisitedTokens) {
  const std::size_t d = 16;
  kv::PageAllocator dense_alloc(cfg(), 128);
  kv::PageAllocator stream_alloc(cfg(), 16);
  kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kDense}, {8, 16});
  num::Rng rng(35);
  for (std::size_t t = 0; t < 256; ++t) {
    std::vector<float> k(d), v(d);
    rng.fill_gaussian(k, 1.0f);
    rng.fill_gaussian(v, 1.0f);
    cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
  }
  num::Tensor q(1, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  FusedDecodeConfig fc;
  fc.dynamic_dense = true;
  fc.selector.token_budget = 32;  // 4 pages of 8
  num::Tensor out(1, d);
  DecodeWorkStats stats;
  fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(), 1,
                      nullptr, 0, fc, out.view(), &stats);
  EXPECT_LE(stats.tokens_visited, 32u);
  EXPECT_EQ(stats.pages_visited, 4u);
}

// Below the selector budget a selection is the full page table. Reusing it
// for the rest of a reuse chunk must still cover the pages opened since,
// the decoding token's own included, so the output equals a full-table
// decode bit for bit. Pages hold 8 tokens; the start offsets put a page
// boundary at every step of a reuse chunk.
TEST(FusedDecode, ReusedSelectionEqualsFullTableBelowBudget) {
  const std::size_t d = 16, group = 2;
  for (const std::size_t interval : {1, 2, 4, 8}) {
    for (std::size_t start = 1; start <= 8; ++start) {
      kv::PageAllocator dense_alloc(cfg(num::KvDtype::kInt4), 16);
      kv::PageAllocator stream_alloc(cfg(num::KvDtype::kInt4), 1);
      kv::TwoWayKvCache cache(1, 1, {kv::HeadKind::kDense}, {8, 16});
      sparse::ReusableSelector selector(1, interval);
      FusedDecodeConfig reused;
      reused.selector.token_budget = 4096;
      FusedDecodeConfig full;
      full.dynamic_dense = false;
      num::Rng rng(40 + start);
      std::vector<float> k(d), v(d);
      num::Tensor q(group, d), a(group, d), b(group, d);
      for (std::size_t step = 0; step < start + 24; ++step) {
        rng.fill_gaussian(k, 1.0f);
        rng.fill_gaussian(v, 1.0f);
        cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
        if (step + 1 < start) continue;  // the prompt
        const std::size_t decode_step = step + 1 - start;
        for (std::size_t i = 0; i < q.size(); ++i) {
          q.data()[i] = rng.gaussian();
        }
        fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(),
                            group, &selector, decode_step, reused, a.view());
        fused_sparse_decode(dense_alloc, stream_alloc, cache, 0, q.view(),
                            group, nullptr, 0, full, b.view());
        ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
                  0)
            << "interval " << interval << " start " << start << " step "
            << decode_step;
      }
      cache.release(dense_alloc, stream_alloc);
    }
  }
}

// ---- Group kernel sweep: dtype x group x head_dim x table shape. ----

enum class TableShape { kFull, kPruned, kPartialTail, kStreaming, kEmpty };

const char* shape_name(TableShape t) {
  switch (t) {
    case TableShape::kFull:
      return "full";
    case TableShape::kPruned:
      return "pruned";
    case TableShape::kPartialTail:
      return "partial_tail";
    case TableShape::kStreaming:
      return "streaming";
    case TableShape::kEmpty:
      return "empty";
  }
  return "?";
}

/// Fills `out` with iid U[lo, hi).
void fill_uniform(num::Rng& rng, std::vector<float>& out, float lo, float hi) {
  for (float& x : out) x = rng.uniform(lo, hi);
}

/// One kv head (dense or streaming) of a one-layer cache, a table over it,
/// and the stored (dequantized) rows of exactly the tokens the table
/// covers — the naive reference's input.
struct GroupCase {
  kv::PageAllocator dense_alloc;
  kv::PageAllocator stream_alloc;
  kv::TwoWayKvCache cache;
  kv::SelectedPageTable table;
  std::vector<std::vector<float>> keys, values;  // covered tokens, stored

  GroupCase(num::KvDtype dtype, std::size_t d, TableShape shape, float lo,
            float hi)
      : dense_alloc(geometry(dtype, d), 16),
        stream_alloc(geometry(dtype, d), 16),
        cache(1, 1,
              {shape == TableShape::kStreaming ? kv::HeadKind::kStreaming
                                               : kv::HeadKind::kDense},
              {8, 16}) {
    // Pages of 8: 40 tokens fill 5 pages; 43 leave a 3-token tail page.
    const std::size_t n = shape == TableShape::kStreaming     ? 64
                          : shape == TableShape::kPartialTail ? 43
                                                              : 40;
    num::Rng rng(77 + d);
    std::vector<float> k(d), v(d);
    for (std::size_t t = 0; t < n; ++t) {
      fill_uniform(rng, k, lo, hi);
      fill_uniform(rng, v, lo, hi);
      cache.append(dense_alloc, stream_alloc, 0, 0, k.data(), v.data());
    }
    if (shape == TableShape::kStreaming) {
      table = cache.streaming_head(0, 0).index_table();
    } else if (shape != TableShape::kEmpty) {
      const kv::SelectedPageTable full =
          kv::full_page_table(cache.dense_head(0, 0).view(dense_alloc));
      if (shape == TableShape::kFull) {
        table = full;
      } else if (shape == TableShape::kPruned) {
        table = {full[0], full[2], full[4]};
      } else {
        table = {full[1], full[5]};  // full page + 3-token tail
      }
    }
    const kv::PageAllocator& a = alloc();
    for (const kv::SelectedPage& e : table) {
      const kv::PagePin pin = a.pin(e.page);
      const std::size_t begin = std::size_t{e.block} * 8;
      const std::size_t count =
          std::min({std::size_t{8}, n - begin, pin.page().size()});
      for (std::size_t s = 0; s < count; ++s) {
        pin.page().load_key(s, k.data());
        pin.page().load_value(s, v.data());
        keys.push_back(k);
        values.push_back(v);
      }
    }
  }

  static kv::PageConfig geometry(num::KvDtype dtype, std::size_t d) {
    kv::PageConfig c = cfg(dtype);
    c.head_dim = d;
    return c;
  }
  const kv::PageAllocator& alloc() const {
    return cache.kind(0, 0) == kv::HeadKind::kStreaming ? stream_alloc
                                                        : dense_alloc;
  }
  std::size_t tokens() const { return cache.tokens(); }

  /// Naive softmax attention over the covered tokens; returns the output
  /// and writes the log-sum-exp of the scores.
  std::vector<float> reference(const float* q, float scale,
                               float* lse) const {
    const std::size_t d = alloc().config().head_dim;
    std::vector<float> out(d, 0.0f);
    if (keys.empty()) {
      *lse = -std::numeric_limits<float>::infinity();
      return out;
    }
    std::vector<double> scores;
    for (const auto& k : keys) {
      double s = 0.0;
      for (std::size_t c = 0; c < d; ++c) s += double{q[c]} * k[c];
      scores.push_back(scale * s);
    }
    const double m = *std::max_element(scores.begin(), scores.end());
    double sum = 0.0;
    for (double& s : scores) sum += (s = std::exp(s - m));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        out[c] += static_cast<float>(scores[i] / sum * values[i][c]);
      }
    }
    *lse = static_cast<float>(m + std::log(sum));
    return out;
  }
};

using SweepParam = std::tuple<num::KvDtype, std::size_t, std::size_t,
                              TableShape>;

class GroupDecodeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GroupDecodeSweep, EveryRowMatchesReferenceAndOneRowCalls) {
  const auto [dtype, group, d, shape] = GetParam();
  const GroupCase gc(dtype, d, shape, -2.0f, 2.0f);
  const kv::PageAllocator& alloc = gc.alloc();
  num::Rng rng(91);
  num::Tensor q(group, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  num::Tensor out(group, d, 7.0f);
  std::vector<float> lse(group);
  DecodeWorkStats stats;
  sparse_paged_decode(alloc, gc.table, gc.tokens(), q.view(), scale,
                      out.view(), lse.data(), &stats);

  // Work counts are per query head: rows x pages, rows x tokens.
  EXPECT_EQ(stats.pages_visited, group * gc.table.size());
  EXPECT_EQ(stats.tokens_visited, group * gc.keys.size());

  for (std::size_t r = 0; r < group; ++r) {
    float ref_lse = 0.0f;
    const std::vector<float> ref = gc.reference(q.row(r), scale, &ref_lse);
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_NEAR(out.at(r, c), ref[c], 1e-4f) << "row " << r << " ch " << c;
    }
    if (gc.keys.empty()) {
      EXPECT_TRUE(std::isinf(lse[r]) && lse[r] < 0.0f);
    } else {
      EXPECT_NEAR(lse[r], ref_lse, 1e-4f) << "row " << r;
    }
    if (shape == TableShape::kFull) {
      std::vector<float> dense(d);
      float dense_lse = 0.0f;
      dense_paged_decode(alloc, gc.cache.dense_head(0, 0), q.row(r), d, scale,
                         dense.data(), &dense_lse);
      for (std::size_t c = 0; c < d; ++c) {
        EXPECT_NEAR(out.at(r, c), dense[c], 1e-5f) << "row " << r;
      }
      EXPECT_NEAR(lse[r], dense_lse, 1e-5f) << "row " << r;
    }

    // A group call is bit-identical to separate one-row calls.
    std::vector<float> single(d);
    float single_lse = 0.0f;
    decode_one(alloc, gc.table, gc.tokens(), q.row(r), d, scale,
               single.data(), &single_lse);
    EXPECT_EQ(std::memcmp(single.data(), out.row(r), d * sizeof(float)), 0)
        << "row " << r;
    EXPECT_EQ(std::memcmp(&single_lse, &lse[r], sizeof(float)), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DtypeGroupDimTable, GroupDecodeSweep,
    ::testing::Combine(::testing::Values(num::KvDtype::kFp16,
                                         num::KvDtype::kInt8,
                                         num::KvDtype::kInt4),
                       // Group 3 is one 2-row tile plus a lone row.
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4}),
                       ::testing::Values(std::size_t{16}, std::size_t{32},
                                         std::size_t{17}),
                       ::testing::Values(TableShape::kFull,
                                         TableShape::kPruned,
                                         TableShape::kPartialTail,
                                         TableShape::kStreaming,
                                         TableShape::kEmpty)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(num::dtype_name(std::get<0>(info.param))) + "_g" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param)) + "_" +
             shape_name(std::get<3>(info.param));
    });

// ---- Prefill rows of the walk: dtype x group x mask and chunk geometry. ----

enum class PrefillShape {
  kCausal,
  kLambda,
  kPartialTail,
  kMidPageStart,
  kOddStart
};

const char* prefill_shape_name(PrefillShape s) {
  switch (s) {
    case PrefillShape::kCausal:
      return "causal";
    case PrefillShape::kLambda:
      return "lambda";
    case PrefillShape::kPartialTail:
      return "partial_tail";
    case PrefillShape::kMidPageStart:
      return "mid_page_start";
    case PrefillShape::kOddStart:
      return "odd_start";
  }
  return "?";
}

using PrefillParam = std::tuple<num::KvDtype, std::size_t, PrefillShape>;

class PrefillRowSweep : public ::testing::TestWithParam<PrefillParam> {};

// One kv head of a one-layer cache, pages of 8 tokens, q-tiles of 16 rows
// and k-tiles of 4 tokens. History is written and evicted the way the
// engine does at a chunk boundary, then the chunk is written with
// eviction deferred. Shapes (history + chunk tokens):
//   causal        16 + 24, page- and tile-aligned;
//   lambda        24 + 24 on a streaming head: 1 sink and 3 local k-tiles,
//                 so kept tiles split pages;
//   partial_tail  16 + 27, the chunk ends 3 tokens into a page;
//   mid_page      21 + 19, the chunk starts mid-page and mid-q-tile;
//   odd_start     23 + 24 on a streaming head with k-tiles of 3 tokens:
//                 tasks of 9 and 15 rows, spans starting and ending off
//                 the walk's 4-slot score blocks.
TEST_P(PrefillRowSweep, EveryRowMatchesOracleAndOneRowWalk) {
  const auto [dtype, group, shape] = GetParam();
  const std::size_t d = 16, page = 8;
  const std::size_t history = shape == PrefillShape::kLambda        ? 24
                              : shape == PrefillShape::kMidPageStart ? 21
                              : shape == PrefillShape::kOddStart     ? 23
                                                                     : 16;
  const std::size_t total = shape == PrefillShape::kLambda        ? 48
                            : shape == PrefillShape::kPartialTail ? 43
                            : shape == PrefillShape::kOddStart    ? 47
                                                                  : 40;
  const std::size_t n = total - history;
  const bool streaming =
      shape == PrefillShape::kLambda || shape == PrefillShape::kOddStart;
  const std::size_t tk = shape == PrefillShape::kOddStart ? 3 : 4;
  const kv::StreamingConfig window{/*sink_tokens=*/4, /*local_tokens=*/12};
  FusedPrefillConfig pc;
  pc.tiling = {/*tile_q=*/16, /*tile_k=*/tk};
  pc.streaming = {/*sink_blocks=*/1, /*local_blocks=*/3};
  pc.total_tokens = total;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  pc.scale = scale;

  kv::PageAllocator alloc(GroupCase::geometry(dtype, d), 16);
  kv::TwoWayKvCache cache(
      1, 1, {streaming ? kv::HeadKind::kStreaming : kv::HeadKind::kDense},
      window);
  num::Rng rng(101 + group);
  num::Tensor k(total, d), v(total, d), q(total, group * d);
  for (num::Tensor* t : {&k, &v, &q}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  // append_roundtrip leaves the stored (dequantized) rows in k/v: the
  // oracles' inputs.
  for (std::size_t t = 0; t < total; ++t) {
    if (t == history) cache.evict_stale(alloc, 0);
    cache.append_roundtrip(alloc, alloc, 0, 0, k.row(t), v.row(t));
  }

  num::Tensor fused(n, group * d), reversed(n, group * d);
  const auto chunk = [&](const num::Tensor& t) {
    return t.view().rows_slice(history, n);
  };
  fused_chunked_prefill(alloc, alloc, cache, 0, chunk(q), chunk(k), chunk(v),
                        d, pc, fused.view());
  // Tasks are independent: any run order gives the same bits.
  const ParallelFor backwards =
      [](std::size_t count, const std::function<void(std::size_t)>& fn) {
        for (std::size_t i = count; i-- > 0;) fn(i);
      };
  fused_chunked_prefill(alloc, alloc, cache, 0, chunk(q), chunk(k), chunk(v),
                        d, pc, reversed.view(), backwards);
  EXPECT_EQ(std::memcmp(fused.data(), reversed.data(),
                        fused.size() * sizeof(float)),
            0);

  const kv::SelectedPageTable table =
      streaming ? cache.streaming_head(0, 0).index_table()
                : kv::full_page_table(cache.dense_head(0, 0).view(alloc));
  // Key-tile liveness for absolute row p: all tiles when causal; for Λ, as
  // BlockMask::streaming decides it for the row's q-tile.
  const auto keep_tile = [&](std::size_t kb, std::size_t p) {
    const std::size_t last = std::min((p / 16 + 1) * 16, total) - 1;
    return !streaming || kb < 1 || kb + 3 > last / tk;
  };
  for (std::size_t g = 0; g < group; ++g) {
    const num::ConstMatView qg = q.view().cols_slice(g * d, d);
    num::Tensor dense_ref(total, d);
    attn::dense_prefill_reference(qg, k.view(), v.view(), scale,
                                  dense_ref.view());
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t p = history + r;
      // The row on its own: one row, its own causal end, its mask's spans.
      const std::vector<PageSpan> spans =
          mask_spans(table, page, p + 1, 0, tk,
                     [&](std::size_t kb) { return keep_tile(kb, p); });
      const std::size_t end[1] = {p + 1};
      std::vector<float> one(d);
      DecodeWorkStats stats;
      sparse_paged_attention(alloc, spans, end, qg.rows_slice(p, 1), scale,
                             num::MatView{one.data(), 1, d, d}, nullptr,
                             &stats);
      EXPECT_EQ(std::memcmp(one.data(), fused.row(r) + g * d,
                            d * sizeof(float)),
                0)
          << "row " << p << " head " << g;

      // Oracle: softmax over the kept tokens; work: one page per run of
      // kept tokens inside a page, one token per kept token.
      std::vector<double> w;
      std::vector<std::size_t> tokens;
      std::size_t runs = 0;
      double m = -1e30;
      for (std::size_t j = 0; j <= p; ++j) {
        if (!keep_tile(j / tk, p)) continue;
        if (tokens.empty() || tokens.back() + 1 != j || j % page == 0) ++runs;
        tokens.push_back(j);
        double s = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          s += double{qg.at(p, c)} * k.at(j, c);
        }
        w.push_back(scale * s);
        m = std::max(m, w.back());
      }
      double sum = 0.0;
      for (double& x : w) sum += (x = std::exp(x - m));
      for (std::size_t c = 0; c < d; ++c) {
        double ref = 0.0;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          ref += w[i] / sum * v.at(tokens[i], c);
        }
        EXPECT_NEAR(one[c], ref, 1e-4) << "row " << p << " ch " << c;
        if (!streaming) {
          EXPECT_NEAR(one[c], dense_ref.at(p, c), 1e-4f) << "row " << p;
        }
      }
      EXPECT_EQ(stats.tokens_visited, tokens.size()) << "row " << p;
      EXPECT_EQ(stats.pages_visited, runs) << "row " << p;
      if (!streaming) {
        EXPECT_EQ(stats.pages_visited, p / page + 1);
        // A causal prefill row is the decode step at its position.
        std::vector<float> step(d);
        sparse_paged_decode(alloc, table, p + 1, qg.rows_slice(p, 1), scale,
                            num::MatView{step.data(), 1, d, d});
        EXPECT_EQ(std::memcmp(step.data(), one.data(), d * sizeof(float)), 0)
            << "row " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DtypeGroupShape, PrefillRowSweep,
    ::testing::Combine(::testing::Values(num::KvDtype::kFp16,
                                         num::KvDtype::kInt8,
                                         num::KvDtype::kInt4),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}),
                       ::testing::Values(PrefillShape::kCausal,
                                         PrefillShape::kLambda,
                                         PrefillShape::kPartialTail,
                                         PrefillShape::kMidPageStart,
                                         PrefillShape::kOddStart)),
    [](const ::testing::TestParamInfo<PrefillParam>& info) {
      return std::string(num::dtype_name(std::get<0>(info.param))) + "_g" +
             std::to_string(std::get<1>(info.param)) + "_" +
             prefill_shape_name(std::get<2>(info.param));
    });

// int4 rows in [100, 101] store zero points near -1500 in code space, so
// the code-space score s·(q·c − z·Σq) and the V bias Σ p·s·z are large
// terms that must cancel back to ~100-valued keys and values.
TEST(GroupDecode, Int4LargeZeroPointMatchesDenseOracle) {
  const std::size_t d = 32, group = 2;
  const GroupCase gc(num::KvDtype::kInt4, d, TableShape::kFull, 100.0f,
                     101.0f);
  const kv::PageAllocator& alloc = gc.alloc();
  {
    const kv::PagePin pin = alloc.pin(gc.table[0].page);
    EXPECT_LT(pin.page().keys().params(0).zero_point, -1000.0f);
  }
  num::Rng rng(93);
  num::Tensor q(group, d);
  for (std::size_t i = 0; i < q.size(); ++i) q.data()[i] = rng.gaussian();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  num::Tensor out(group, d);
  std::vector<float> lse(group);
  sparse_paged_decode(alloc, gc.table, gc.tokens(), q.view(), scale,
                      out.view(), lse.data());
  for (std::size_t r = 0; r < group; ++r) {
    std::vector<float> dense(d);
    float dense_lse = 0.0f;
    dense_paged_decode(alloc, gc.cache.dense_head(0, 0), q.row(r), d, scale,
                       dense.data(), &dense_lse);
    float ref_lse = 0.0f;
    const std::vector<float> ref = gc.reference(q.row(r), scale, &ref_lse);
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_GE(out.at(r, c), 100.0f);
      // ~2e-6 relative to the ~100-valued outputs.
      EXPECT_NEAR(out.at(r, c), ref[c], 2e-4f) << "row " << r;
      EXPECT_NEAR(out.at(r, c), dense[c], 2e-4f) << "row " << r;
    }
    EXPECT_NEAR(lse[r], ref_lse, 1e-4f);
    EXPECT_NEAR(lse[r], dense_lse, 1e-4f);
  }
}

}  // namespace
}  // namespace lserve::attn
