#include "baselines/baseline_engines.hpp"

namespace lserve::baselines {
namespace {

serve::EngineConfig base(const model::ModelConfig& m) {
  serve::EngineConfig cfg;
  cfg.model = m;
  cfg.dense_pages.head_dim = m.head_dim;
  return cfg;
}

}  // namespace

serve::EngineConfig lserve_config(const model::ModelConfig& m) {
  serve::EngineConfig cfg = base(m);
  cfg.dense_pages.page_size = 64;
  cfg.dense_pages.logical_page_size = 16;
  cfg.dense_pages.dtype = num::KvDtype::kInt4;
  cfg.streaming = {/*sink_tokens=*/64, /*local_tokens=*/256};
  cfg.streaming_fraction = 0.5;
  cfg.dynamic_decode = true;
  cfg.hierarchical = true;
  cfg.selector.token_budget = 4096;
  cfg.reuse_interval = 4;
  return cfg;
}

serve::EngineConfig vllm_config(const model::ModelConfig& m) {
  serve::EngineConfig cfg = base(m);
  cfg.dense_pages.page_size = 32;
  cfg.dense_pages.logical_page_size = 32;
  cfg.dense_pages.dtype = num::KvDtype::kFp16;
  cfg.streaming_fraction = 0.0;
  cfg.dynamic_decode = false;
  cfg.reuse_interval = 1;
  return cfg;
}

serve::EngineConfig qserve_config(const model::ModelConfig& m) {
  serve::EngineConfig cfg = base(m);
  cfg.dense_pages.page_size = 64;
  cfg.dense_pages.logical_page_size = 64;
  cfg.dense_pages.dtype = num::KvDtype::kInt4;
  cfg.streaming_fraction = 0.0;
  cfg.dynamic_decode = false;
  cfg.reuse_interval = 1;
  return cfg;
}

serve::EngineConfig duo_attention_config(const model::ModelConfig& m) {
  serve::EngineConfig cfg = base(m);
  cfg.dense_pages.page_size = 32;
  cfg.dense_pages.logical_page_size = 32;
  cfg.dense_pages.dtype = num::KvDtype::kFp16;
  cfg.streaming = {/*sink_tokens=*/64, /*local_tokens=*/256};
  cfg.streaming_fraction = 0.5;
  cfg.dynamic_decode = false;
  cfg.reuse_interval = 1;
  return cfg;
}

serve::EngineConfig quest_config(const model::ModelConfig& m) {
  serve::EngineConfig cfg = base(m);
  cfg.dense_pages.page_size = 16;
  cfg.dense_pages.logical_page_size = 16;
  cfg.dense_pages.dtype = num::KvDtype::kFp16;
  cfg.streaming_fraction = 0.0;
  cfg.dynamic_decode = true;
  cfg.hierarchical = false;  // flat page-level min/max scoring.
  cfg.selector.token_budget = 4096;
  cfg.reuse_interval = 1;  // Quest selects every step.
  return cfg;
}

serve::EngineConfig minference_config(const model::ModelConfig& m) {
  serve::EngineConfig cfg = base(m);
  cfg.dense_pages.page_size = 32;
  cfg.dense_pages.logical_page_size = 32;
  cfg.dense_pages.dtype = num::KvDtype::kFp16;
  cfg.streaming_fraction = 0.0;
  cfg.dynamic_decode = false;
  cfg.dynamic_prefill = true;
  cfg.reuse_interval = 1;
  return cfg;
}

std::shared_ptr<const serve::CostModelGatedPolicy> gated_policy(
    const serve::EngineConfig& cfg, const cost::GpuSpec& spec,
    std::size_t batch) {
  return serve::make_cost_model_gated_policy(spec, cfg, batch);
}

}  // namespace lserve::baselines
