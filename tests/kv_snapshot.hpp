// Test helper: every K/V row a sequence's cache still holds, as stored.
#ifndef LSERVE_TESTS_KV_SNAPSHOT_HPP_
#define LSERVE_TESTS_KV_SNAPSHOT_HPP_

#include <vector>

#include "serve/engine.hpp"

namespace lserve::test {

/// Dequantized keys then values of every retained token, in (layer,
/// kv head, block, slot) order: dense heads hold the full history,
/// streaming heads their sink + local pages. Two runs that wrote the same
/// bits give equal snapshots.
inline std::vector<float> kv_snapshot(serve::Engine& engine,
                                      serve::SequenceId id) {
  const kv::TwoWayKvCache& cache = engine.sequence(id).cache;
  std::vector<float> out;
  for (std::size_t layer = 0; layer < cache.layers(); ++layer) {
    for (std::size_t h = 0; h < cache.kv_heads(); ++h) {
      const bool streaming =
          cache.kind(layer, h) == kv::HeadKind::kStreaming;
      const kv::PageAllocator& alloc = streaming ? engine.stream_allocator()
                                                 : engine.dense_allocator();
      const kv::SelectedPageTable table =
          streaming ? cache.streaming_head(layer, h).index_table()
                    : kv::full_page_table(
                          cache.dense_head(layer, h).view(alloc));
      std::vector<float> row(alloc.config().head_dim);
      for (const kv::SelectedPage& e : table) {
        const kv::PagePin pin = alloc.pin(e.page);
        out.push_back(static_cast<float>(e.block));
        for (std::size_t s = 0; s < pin.page().size(); ++s) {
          pin.page().load_key(s, row.data());
          out.insert(out.end(), row.begin(), row.end());
          pin.page().load_value(s, row.data());
          out.insert(out.end(), row.begin(), row.end());
        }
      }
    }
  }
  return out;
}

}  // namespace lserve::test

#endif  // LSERVE_TESTS_KV_SNAPSHOT_HPP_
