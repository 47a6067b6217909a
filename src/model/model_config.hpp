// Model geometry presets.
//
// Efficiency experiments depend only on tensor shapes — layer count, query/
// kv head counts, head dimension, FFN width — so each preset mirrors the
// published geometry of the models LServe evaluates. The `tiny`/`small`
// presets are scaled-down geometries used by tests and CPU-measured benches
// (weights are synthetic everywhere; see DESIGN.md §2).
#pragma once

#include <cstddef>
#include <string>

namespace lserve::model {

/// Transformer geometry + tokenizer-free vocab for the simulator.
struct ModelConfig {
  std::string name = "tiny";
  std::size_t layers = 2;
  std::size_t q_heads = 4;
  std::size_t kv_heads = 2;
  std::size_t head_dim = 32;
  std::size_t ffn_hidden = 256;
  std::size_t vocab = 256;
  float rope_base = 10000.0f;

  std::size_t hidden() const noexcept { return q_heads * head_dim; }
  std::size_t kv_dim() const noexcept { return kv_heads * head_dim; }
  std::size_t group_size() const noexcept { return q_heads / kv_heads; }
};

/// Llama-3-8B: 32 layers, 32 query / 8 kv heads, d=128, FFN 14336 (GQA).
ModelConfig llama3_8b();
/// Llama-2-7B: 32 layers, 32/32 heads, d=128, FFN 11008 (MHA).
ModelConfig llama2_7b();
/// Minitron-4B: 32 layers, 24 query / 8 kv heads, d=128, FFN 9216 (GQA).
ModelConfig minitron_4b();
/// DeepSeek-R1-Distill-Llama-8B: same geometry as Llama-3-8B.
ModelConfig ds_r1_llama_8b();

/// 2-layer, 4/2-head, d=32 geometry for unit tests.
ModelConfig tiny();
/// 4-layer, 8/4-head, d=64 geometry for integration tests and examples.
ModelConfig small();

}  // namespace lserve::model
