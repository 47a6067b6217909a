// Baseline engine presets (DESIGN.md S7).
//
// Each preset returns an EngineConfig that reproduces one comparison
// system's policy on top of the shared substrate:
//
//   vLLM         — fp16 KV, paged dense attention, no sparsity.
//   QServe       — 4-bit KV, larger pages, dense attention (W4A8KV4's KV
//                  side; weight/activation quantization is outside the
//                  attention scope reproduced here).
//   DuoAttention — fp16 KV, 50% streaming heads, dense retrieval heads.
//   Quest        — fp16 KV, 16-token pages, flat query-aware page
//                  selection every step, no streaming heads (MHA only in
//                  the paper; works for GQA here as well).
//   MInference   — fp16 KV, dynamic prefill block sparsity, dense decode.
//   LServe       — 4-bit KV on 64-token physical / 16-token logical pages,
//                  50% streaming heads, hierarchical selection with a
//                  4096-token budget, reuse interval 4.
//
// Token budgets and sink/local sizes follow the paper's defaults; tests
// and benches override fields for scaled-down geometries.
#pragma once

#include <memory>

#include "costmodel/gpu_spec.hpp"
#include "serve/engine.hpp"

namespace lserve::baselines {

serve::EngineConfig lserve_config(const model::ModelConfig& m);
serve::EngineConfig vllm_config(const model::ModelConfig& m);
serve::EngineConfig qserve_config(const model::ModelConfig& m);
serve::EngineConfig duo_attention_config(const model::ModelConfig& m);
serve::EngineConfig quest_config(const model::ModelConfig& m);
serve::EngineConfig minference_config(const model::ModelConfig& m);

/// LServe's cost-model gate for `cfg` served on `spec` at decode batch
/// `batch`: dense attention below the modeled sparse-vs-dense crossover,
/// the configured hybrid pipeline at or past it. Convenience wrapper over
/// serve::make_cost_model_gated_policy for bench/test call sites that
/// already hold a preset config.
std::shared_ptr<const serve::CostModelGatedPolicy> gated_policy(
    const serve::EngineConfig& cfg, const cost::GpuSpec& spec,
    std::size_t batch);

}  // namespace lserve::baselines
