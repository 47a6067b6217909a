#include "eval/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "attn/decode_attention.hpp"
#include "numeric/math.hpp"
#include "sparse/hierarchical_selector.hpp"

namespace lserve::eval {

void fill_head_cache(kv::PageAllocator& alloc, kv::HeadCache& head,
                     const model::TokenStream& stream) {
  for (std::size_t t = 0; t < stream.keys.rows(); ++t) {
    head.append(alloc, stream.keys.row(t), stream.values.row(t));
  }
}

kv::SelectedPageTable policy_table(const kv::PageAllocator& alloc,
                                   const kv::HeadCache& head, const float* q,
                                   const ProbePolicy& policy) {
  const kv::PageTableView view = head.view(alloc);
  switch (policy.kind) {
    case PolicyKind::kDense:
      return kv::full_page_table(view);
    case PolicyKind::kFlatSelect:
      return sparse::select_pages_flat(alloc, head, q, policy.selector);
    case PolicyKind::kHierSelect:
      return sparse::select_pages_hierarchical(alloc, head, q,
                                               policy.selector);
    case PolicyKind::kStreaming: {
      const std::size_t np = view.page_size;
      const std::size_t blocks = view.num_blocks();
      const std::size_t sink_blocks =
          std::min(blocks, (policy.sink_tokens + np - 1) / np);
      const std::size_t local_blocks =
          std::min(blocks, (policy.local_tokens + np - 1) / np);
      kv::SelectedPageTable table;
      for (std::size_t b = 0; b < blocks; ++b) {
        const bool sink = b < sink_blocks;
        const bool local = b + local_blocks >= blocks;
        if (sink || local) {
          table.push_back({view.pages[b], static_cast<std::uint32_t>(b)});
        }
      }
      return table;
    }
  }
  return {};
}

std::vector<float> run_probe(const kv::PageAllocator& alloc,
                             const kv::HeadCache& head, const float* q,
                             const ProbePolicy& policy) {
  return run_probe_on_table(alloc, head, policy_table(alloc, head, q, policy),
                            q);
}

std::vector<float> run_probe_on_table(const kv::PageAllocator& alloc,
                                      const kv::HeadCache& head,
                                      const kv::SelectedPageTable& table,
                                      const float* q) {
  const std::size_t d = alloc.config().head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> out(d, 0.0f);
  attn::sparse_paged_decode(alloc, table, head.tokens(),
                            num::ConstMatView{q, 1, d, d}, scale,
                            num::MatView{out.data(), 1, d, d});
  return out;
}

std::size_t probe_pages_visited(const kv::PageAllocator& alloc,
                                const kv::HeadCache& head, const float* q,
                                const ProbePolicy& policy) {
  return policy_table(alloc, head, q, policy).size();
}

float retrieval_accuracy(std::span<const float> out,
                         std::span<const float> target) {
  assert(out.size() == target.size());
  const float cos =
      num::cosine_similarity(out.data(), target.data(), out.size());
  return std::max(0.0f, cos);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

}  // namespace lserve::eval
