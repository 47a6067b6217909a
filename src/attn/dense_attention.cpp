#include "attn/dense_attention.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {

void dense_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                             num::ConstMatView v, float scale,
                             num::MatView out) {
  assert(q.rows == out.rows && q.cols == k.cols && k.rows == v.rows);
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  std::vector<float> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* qi = q.row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      scores[j] = scale * num::dot(qi, k.row(j), d);
    }
    num::softmax_inplace(scores.data(), i + 1);
    float* oi = out.row(i);
    std::fill(oi, oi + d, 0.0f);
    for (std::size_t j = 0; j <= i; ++j) {
      num::axpy(scores[j], v.row(j), oi, d);
    }
  }
}

void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out) {
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  std::vector<float> scores;
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < n; ++i) {
    scores.clear();
    cols.clear();
    for (std::size_t j = 0; j <= i; ++j) {
      const bool sink = j < sink_tokens;
      const bool local = j + local_tokens > i;
      if (!sink && !local) continue;
      cols.push_back(j);
      scores.push_back(scale * num::dot(q.row(i), k.row(j), d));
    }
    num::softmax_inplace(scores.data(), scores.size());
    float* oi = out.row(i);
    std::fill(oi, oi + d, 0.0f);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      num::axpy(scores[t], v.row(cols[t]), oi, d);
    }
  }
}

void dense_paged_decode(const kv::PageAllocator& alloc,
                        const kv::HeadCache& head, const float* q,
                        std::size_t head_dim, float scale, float* out,
                        float* lse_out) {
  assert(head_dim == alloc.config().head_dim);
  const kv::PageTableView view = head.view(alloc);
  num::OnlineSoftmax acc(head_dim);
  std::vector<float> key(head_dim);
  std::vector<float> value(head_dim);
  for (std::size_t b = 0; b < view.num_blocks(); ++b) {
    const kv::PagePin pin = alloc.pin(view.pages[b]);
    const kv::Page& page = pin.page();
    const std::size_t count = view.block_tokens(b);
    for (std::size_t s = 0; s < count; ++s) {
      page.load_key(s, key.data());
      page.load_value(s, value.data());
      acc.fold_one(scale * num::dot(q, key.data(), head_dim), value.data());
    }
  }
  acc.finish(out);
  if (lse_out != nullptr) *lse_out = acc.log_sum_exp();
}

}  // namespace lserve::attn
